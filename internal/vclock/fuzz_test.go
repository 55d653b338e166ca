package vclock

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// fuzzDurations is the set Sleep steps draw from. Zero and small
// repeated values make co-deadline batches and zero-length sleeps
// common, which is where batched dispatch could reorder wakes.
var fuzzDurations = [4]time.Duration{0, time.Millisecond, time.Millisecond, 3 * time.Millisecond}

// decodeSleepPrograms turns fuzz bytes into 1..6 processes, each a list
// of Sleep durations: the first byte picks the process count, and every
// following byte appends one step to process (b>>2)%n.
func decodeSleepPrograms(data []byte) [][]time.Duration {
	if len(data) == 0 {
		return nil
	}
	progs := make([][]time.Duration, 1+int(data[0])%6)
	for _, b := range data[1:] {
		pid := int(b>>2) % len(progs)
		progs[pid] = append(progs[pid], fuzzDurations[b&3])
	}
	return progs
}

func sleepMark(pid, step int, at time.Duration) string {
	return fmt.Sprintf("p%d.%d@%v", pid, step, at)
}

// refSleepOrder is the reference scheduler: a ready FIFO holding the
// processes in spawn order, drained first, then one timer per dispatch,
// the minimum by (deadline, arm seq). It also counts the dispatches
// that pick a process other than the one that just slept — exactly the
// handoffs the engine must pay (plus the one that starts root).
func refSleepOrder(progs [][]time.Duration) (log []string, end time.Duration, handoffs uint64) {
	type timer struct {
		at       time.Duration
		seq, pid int
	}
	var timers []timer
	ready := make([]int, len(progs))
	for pid := range ready {
		ready[pid] = pid
	}
	step := make([]int, len(progs))
	seq, prev := 0, -1
	handoffs = 1 // Run hands the slot to root, which spawns and exits
	for {
		var pid int
		switch {
		case len(ready) > 0:
			pid, ready = ready[0], ready[1:]
		case len(timers) > 0:
			min := 0
			for i, t := range timers {
				if t.at < timers[min].at || t.at == timers[min].at && t.seq < timers[min].seq {
					min = i
				}
			}
			end, pid = timers[min].at, timers[min].pid
			timers = append(timers[:min], timers[min+1:]...)
		default:
			return log, end, handoffs
		}
		if pid != prev {
			handoffs++
		}
		k := step[pid]
		if k > 0 {
			log = append(log, sleepMark(pid, k-1, end))
		}
		prev = -1 // an exiting process cannot be re-selected
		if k < len(progs[pid]) {
			seq++
			timers = append(timers, timer{end + progs[pid][k], seq, pid})
			step[pid]++
			prev = pid
		}
	}
}

// runSleepPrograms runs progs on the engine: root spawns one process
// per program in order and exits; each process logs a mark after every
// Sleep returns.
func runSleepPrograms(progs [][]time.Duration) (log []string, end time.Duration, handoffs uint64) {
	c := New()
	end = c.Run(func() {
		for pid, prog := range progs {
			c.Go(fmt.Sprintf("p%d", pid), func() {
				for k, d := range prog {
					c.Sleep(d)
					log = append(log, sleepMark(pid, k, c.Now()))
				}
			})
		}
	})
	return log, end, c.Handoffs()
}

// FuzzSleepOrder checks FIFO-by-seq wake order on arbitrary sleep
// programs: the engine's wake log, final time and handoff count must
// equal the reference scheduler's.
func FuzzSleepOrder(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3})
	f.Add([]byte{3, 1, 5, 9, 13, 1, 5, 9, 13})
	f.Add([]byte{5, 0, 4, 8, 12, 16, 20, 3, 7, 11, 2, 6, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		progs := decodeSleepPrograms(data)
		wantLog, wantEnd, wantHandoffs := refSleepOrder(progs)
		gotLog, gotEnd, gotHandoffs := runSleepPrograms(progs)
		if strings.Join(gotLog, " ") != strings.Join(wantLog, " ") {
			t.Fatalf("programs %v:\nengine    %v\nreference %v", progs, gotLog, wantLog)
		}
		if gotEnd != wantEnd {
			t.Fatalf("programs %v: engine ended at %v, reference at %v", progs, gotEnd, wantEnd)
		}
		if gotHandoffs != wantHandoffs {
			t.Fatalf("programs %v: engine made %d handoffs, reference %d", progs, gotHandoffs, wantHandoffs)
		}
	})
}
