package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"

	"gflink/internal/kernels"
)

// TestSimMetricsDeterministic: every simulated-time metric of a traced
// job (sim_s, sim_rps and the per-layer sim-clock metrics) repeats
// exactly across repeats and between GOMAXPROCS=1 and the default.
func TestSimMetricsDeterministic(t *testing.T) {
	for _, w := range allWorkloads {
		t.Run(w.name, func(t *testing.T) {
			ref, err := w.reference(7)
			if err != nil {
				t.Fatal(err)
			}
			traced := func() map[string]metric {
				s := runJob(w, 7, ref, true, nil)
				if s.err != nil {
					t.Fatalf("job failed: %v", s.err)
				}
				return simMetrics(s)
			}
			first := traced()
			if again := traced(); !reflect.DeepEqual(first, again) {
				t.Errorf("repeat differs:\n%v\n%v", first, again)
			}
			prev := runtime.GOMAXPROCS(1)
			single := traced()
			runtime.GOMAXPROCS(prev)
			if !reflect.DeepEqual(first, single) {
				t.Errorf("GOMAXPROCS=1 differs from %d:\n%v\n%v", prev, single, first)
			}
		})
	}
}

// TestSecondSeedPasses: a seed other than the default runs every
// workload's job and matches its reference.
func TestSecondSeedPasses(t *testing.T) {
	for _, w := range allWorkloads {
		ref, err := w.reference(11)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if s := runJob(w, 11, ref, false, nil); s.err != nil {
			t.Errorf("%s: %v", w.name, s.err)
		}
	}
}

// TestTailPercentile: the tail is the highest whole percentile with at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, n := range []int{11, 20, 57, 100, 333} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		v, pct := tailPercentile(xs)
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond < 10 || n-rankOf(pct+1, n) >= 10 {
			t.Errorf("n=%d: p%d=%v leaves %d beyond", n, pct, v, beyond)
		}
	}
}

// TestHostSharesAttributesModules profiles a labelled loop inside the
// kernels module and checks the decoder attributes it there and that
// the shares cover every sample.
func TestHostSharesAttributesModules(t *testing.T) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Skip("CPU profiler unavailable:", err)
	}
	in := make([]byte, 8<<16)
	sums := make([]float32, 256)
	pprof.Do(context.Background(), pprof.Labels("job", "plain"), func(context.Context) {
		sw := stopwatch{}
		for sw.t1.Sub(sw.t0).Seconds() < 0.5 {
			if sw.t0.IsZero() {
				sw.start()
			}
			kernels.CPUWindowAgg(in, 1<<16, 256, sums)
			sw.stop()
		}
	})
	pprof.StopCPUProfile()
	shares, samples, err := hostShares(prof.Bytes(), "plain")
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	// Under -race, samples inside the race runtime carry no Go frames
	// and count as gc, so only require kernels to lead the modules.
	var sum float64
	for mod, v := range shares { //gflink:unordered — summing shares to compare with 1 at tolerance
		sum += v
		if mod != "gc" && mod != "kernels" && v >= shares["kernels"] {
			t.Errorf("module %s share %.2f ≥ kernels %.2f: %v", mod, v, shares["kernels"], shares)
		}
	}
	if shares["kernels"] == 0 || math.Abs(sum-1) > 1e-9 {
		t.Errorf("kernels share %.2f of %d samples, shares sum to %v: %v", shares["kernels"], samples, sum, shares)
	}
}
