package main

import "time"

// probeRounds is the size of one host-speed probe: a goroutine
// ping-pong over unbuffered channels, the same scheduler park/wake path
// every vclock handoff takes, using only the Go runtime and none of the
// program's code.
const probeRounds = 5000

// probeRef is the probe's median on the reference host (2-vCPU Xeon VM,
// Go 1.24, GOMAXPROCS=1, no co-tenant load). Host-time end-to-end
// metrics are scaled by probeRef / (the run's median probe), so they
// read as seconds on that host at its calm speed.
const probeRef = 3500 * time.Microsecond

// probe times probeRounds goroutine handoffs.
//
// Job host time on a shared VM drifts by 20-50% over minutes as
// co-tenant load changes, and the probe drifts with it (the drift sits
// in goroutine switching, not in memory latency), so the ratio of the
// two is what a run can reproduce. A change to the program cannot move
// the probe.
func probe() time.Duration {
	ping, pong := make(chan struct{}), make(chan struct{})
	//gflink:allow-go the probe's partner goroutine runs outside any simulation; probe waits for it to exit
	go func() {
		for range ping {
			pong <- struct{}{}
		}
		close(pong)
	}()
	t0 := hostNow()
	for i := 0; i < probeRounds; i++ {
		ping <- struct{}{}
		<-pong
	}
	d := hostNow().Sub(t0)
	close(ping)
	<-pong
	return d
}

// hostSpeed collects the probes of one run.
type hostSpeed struct{ probes []float64 }

// sample runs one probe; callers take one before every job.
func (h *hostSpeed) sample() {
	h.probes = append(h.probes, probe().Seconds())
}

// scale is the factor that converts this run's host seconds to seconds
// at the reference host's calm speed.
func (h *hostSpeed) scale() float64 {
	return probeRef.Seconds() / median(h.probes)
}
