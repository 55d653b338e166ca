package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// modules are the program's packages under gflink/internal that a
// plain job can execute; host_share.<module> is reported for each, and
// host_share.gc for samples with no such frame (GC, scheduler).
var modules = []string{"core", "costmodel", "flink", "gpu", "gstruct", "hdfs", "kernels", "membuf", "netsim", "obs", "plan", "stream", "vclock", "workloads"}

const modulePrefix = "gflink/internal/"

// hostShares attributes every CPU-profile sample that carries the label
// job=<label> to the innermost gflink/internal/<module> frame of its
// stack and returns each module's share of those samples.
func hostShares(profile []byte, label string) (map[string]float64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		if len(s.values) == 0 || !s.hasLabel(p.strings, "job", label) {
			continue
		}
		mod := "gc"
	stack:
		for _, loc := range s.locations {
			for _, fn := range p.locFuncs[loc] {
				if name := p.strings[p.funcNames[fn]]; strings.HasPrefix(name, modulePrefix) {
					rest := name[len(modulePrefix):]
					if i := strings.IndexAny(rest, "./"); i > 0 {
						rest = rest[:i]
					}
					mod = rest
					break stack
				}
			}
		}
		counts[mod] += s.values[0]
		total += s.values[0]
	}
	shares := map[string]float64{}
	for _, mod := range append([]string{"gc"}, modules...) {
		if total > 0 {
			shares[mod] = float64(counts[mod]) / float64(total)
		}
	}
	return shares, total, nil
}

// profile is the part of a pprof profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string-table index
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
	labels    [][2]int64 // (key, str) string-table indices
}

func (s sample) hasLabel(strs []string, key, val string) bool {
	for _, l := range s.labels {
		if int(l[0]) < len(strs) && int(l[1]) < len(strs) && strs[l[0]] == key && strs[l[1]] == val {
			return true
		}
	}
	return false
}

// decodeProfile reads the profile.proto fields Profile.sample (2),
// .location (4), .function (5) and .string_table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, v uint64, msg []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					return packedOrSingle(m, v, func(x uint64) { s.locations = append(s.locations, x) })
				case 2:
					return packedOrSingle(m, v, func(x uint64) { s.values = append(s.values, int64(x)) })
				case 3:
					var l [2]int64
					err := eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 || lf == 2 {
							l[lf-1] = int64(lv)
						}
						return nil
					})
					s.labels = append(s.labels, l)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(msg, func(f int, v uint64, m []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(m, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(msg, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(msg))
		}
		return nil
	})
	return p, err
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks one protobuf message, passing varint fields as v and
// length-delimited fields as msg. Fixed-width fields are skipped.
func eachField(b []byte, fn func(field int, v uint64, msg []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var msg []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			msg, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
			continue
		default:
			return errTruncated
		}
		if err := fn(field, v, msg); err != nil {
			return err
		}
	}
	return nil
}

// packedOrSingle decodes a repeated varint field that arrived either
// packed (msg set) or as one element (v).
func packedOrSingle(msg []byte, v uint64, fn func(uint64)) error {
	if msg == nil {
		fn(v)
		return nil
	}
	for len(msg) > 0 {
		x, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		msg = msg[n:]
	}
	return nil
}
