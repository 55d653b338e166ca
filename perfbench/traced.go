package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime/pprof"
)

// runTraced is the per-layer run, kept apart from the end-to-end runs.
// It times each module's public functions on the host clock, then runs
// jobs closed loop for seconds, alternating a plain job (tracing off)
// with a traced one (deployment tracer and counters on through
// Spec.OnBuild). Plain jobs run under a CPU profile label, so their
// samples give host_share.<module>, and their probe-scaled tail gives
// job_host_s.tail; traced jobs give the simulated-time
// metrics, which must repeat exactly from one traced job to the next.
// It writes one trace holding the first traced job's virtual-clock
// spans and the benchmark's host-clock spans as separate processes.
func runTraced(w *workload, seed uint64, seconds float64, outDir string) (result, error) {
	spans := &hostSpans{}
	var speed hostSpeed
	ref, _, tally, err := setUp(w, seed, spans, &speed)
	if err != nil {
		return result{}, err
	}
	m := runLayers(spans)

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	var plain, traced []float64
	var first jobSample
	var sim map[string]metric
	start := hostNow()
	for len(traced) < 3 || hostNow().Sub(start).Seconds() < seconds {
		speed.sample()
		pprof.Do(context.Background(), pprof.Labels("job", "plain"), func(context.Context) {
			s := runJob(w, seed, ref, false, spans)
			tally.add(s)
			plain = append(plain, s.host.Seconds())
		})
		s := runJob(w, seed, ref, true, spans)
		tally.add(s)
		traced = append(traced, s.host.Seconds())
		got := simMetrics(s)
		if sim == nil {
			first, sim = s, got
		} else if !reflect.DeepEqual(got, sim) {
			tally.failed++
			fmt.Printf("traced job %d: simulated metrics differ from the first traced job\n", len(traced))
		}
	}
	pprof.StopCPUProfile()

	for k, v := range sim {
		m[k] = v
	}
	m["obs.trace_overhead"] = metric{median(traced)/median(plain) - 1, "ratio"}
	tail, _ := tailPercentile(plain)
	m["job_host_s.tail"] = metric{tail * speed.scale(), "s"}
	shares, samples, err := hostShares(prof.Bytes(), "plain")
	if err != nil {
		return result{}, fmt.Errorf("cpu profile: %w", err)
	}
	for mod, v := range shares {
		m["host_share."+mod] = metric{v, "ratio"}
	}
	fmt.Printf("traced run: %d plain and %d traced jobs, %d CPU-profile samples attributed\n", len(plain), len(traced), samples)

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, seed))
	simName := fmt.Sprintf("virtual clock: %s job (seed %d)", w.name, seed)
	if err := writeTrace(path, simName, first.g.Obs.Tracer(), spans.spans); err != nil {
		return result{}, err
	}
	fmt.Printf("trace: %s\n", path)
	return tally.result(m), nil
}
