package main

import (
	"sort"
	"strings"
	"time"

	"gflink/internal/obs"
)

// gpuStages are the three pipeline stages obs.RecordGWork emits under
// category "stage" on a stream track.
var gpuStages = map[string]string{"h2d": "gpu.h2d_s", "kernel": "gpu.kernel_s", "d2h": "gpu.d2h_s"}

// simMetrics derives the simulated-time per-layer metrics of one traced
// job from its deployment's spans and counters and the workload's own
// result. Every value is a pure function of the virtual clock, so it
// repeats exactly across runs and GOMAXPROCS settings.
func simMetrics(s jobSample) map[string]metric {
	spans := s.g.Obs.Tracer().Spans()
	reg := s.g.Obs.Metrics()
	simS := s.sim.Seconds()
	m := map[string]metric{
		"sim_s":   {simS, "s"},
		"sim_rps": {s.out.rps, "1/s"},
	}
	stageS := map[string]float64{}
	busy := map[int64][][2]time.Duration{}
	var queue, window []time.Duration
	var gworks, tierNs int64
	for _, sp := range spans {
		switch sp.Cat {
		case "stage":
			if name, ok := gpuStages[sp.Name]; ok && sp.Track != "driver" {
				stageS[name] += sp.Dur().Seconds()
			}
		case "gwork":
			gworks++
			dev := int64(-1)
			for _, a := range sp.Attrs {
				if v, ok := a.Val.(int64); ok && a.Key == "device" {
					dev = v
				}
			}
			busy[dev] = append(busy[dev], [2]time.Duration{sp.Start, sp.End})
		case "queue":
			queue = append(queue, sp.Dur())
		case "mem":
			tierNs += int64(sp.Dur())
		case "window":
			window = append(window, sp.Dur())
		}
	}
	for _, name := range []string{"gpu.h2d_s", "gpu.kernel_s", "gpu.d2h_s"} {
		m[name] = metric{stageS[name], "s"}
	}
	devices := 0
	for _, mgr := range s.g.Managers {
		devices += len(mgr.Devices)
	}
	var busyNs int64
	for _, iv := range busy { //gflink:unordered — summing integer interval lengths
		busyNs += int64(unionLen(iv))
	}
	busyFrac := 0.0
	if devices > 0 && s.sim > 0 {
		busyFrac = float64(busyNs) / (float64(devices) * float64(s.sim))
	}
	m["gpu.busy_frac"] = metric{busyFrac, "ratio"}
	m["gpu.h2d_mb"] = metric{float64(reg.Total("xfer.h2d.bytes")) / 1e6, "MB"}
	m["gpu.d2h_mb"] = metric{float64(reg.Total("xfer.d2h.bytes")) / 1e6, "MB"}

	direct, pooled := reg.Total("sched.direct"), reg.Total("sched.pooled")
	m["core.gworks"] = metric{float64(gworks), "count"}
	m["core.queue_wait_s.p50"] = metric{durQuantile(queue, 0.5), "s"}
	m["core.queue_wait_s.p99"] = metric{durQuantile(queue, 0.99), "s"}
	m["core.steals"] = metric{float64(reg.Total("sched.steals")), "count"}
	m["core.direct_ratio"] = metric{ratio(direct, direct+pooled), "ratio"}

	hits, misses := reg.Total("cache.hits"), reg.Total("cache.misses")
	m["core.cache.hit_ratio"] = metric{ratio(hits, hits+misses), "ratio"}
	m["core.cache.evictions"] = metric{float64(reg.Total("cache.evictions")), "count"}
	for _, c := range []string{"demotions", "promotions", "spills", "reloads"} {
		m["core.mem."+c] = metric{float64(reg.Total("mem." + c)), "count"}
	}
	m["core.mem.tier_s"] = metric{time.Duration(tierNs).Seconds(), "s"}

	m["stream.blocked_s"] = metric{time.Duration(reg.Total("stream.blockedns")).Seconds(), "s"}
	m["stream.depth_max"] = metric{float64(maxCounter(reg, "stream.depthmax")), "batches"}
	m["stream.grants"] = metric{float64(reg.Total("stream.grants")), "count"}
	m["stream.window_s.p50"] = metric{durQuantile(window, 0.5), "s"}
	m["stream.window_s.p99"] = metric{durQuantile(window, 0.99), "s"}

	var first, steady float64
	if it := s.out.iterations; len(it) > 0 {
		first = it[0].Seconds()
		if len(it) > 2 {
			steady = durQuantile(it[1:len(it)-1], 0.5)
		}
	}
	m["workloads.iter_first_s"] = metric{first, "s"}
	m["workloads.iter_steady_s"] = metric{steady, "s"}
	m["workloads.map_phase_s"] = metric{s.out.mapPhase.Seconds(), "s"}
	return m
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// maxCounter is the largest counter whose name starts with prefix.
func maxCounter(reg *obs.Registry, prefix string) int64 {
	var hi int64
	for _, c := range reg.Snapshot() {
		if strings.HasPrefix(c.Name, prefix) && c.Value > hi {
			hi = c.Value
		}
	}
	return hi
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curE {
			total += curE - curS
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	return total + curE - curS
}
