package workloads

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"gflink/internal/core"
	"gflink/internal/plan"
)

// The pre-refactor eager drivers produced these exact results (same
// deployment, same parameters). Pinning them as literals makes the
// planned pipelines' equivalence a regression test, not a tautology:
// forced-CPU and forced-GPU plans must reproduce the eager engine's
// virtual-clock trace byte for byte, nanosecond for nanosecond.
var eagerGolden = map[string]Result{
	"wc-cpu": {Total: 3751324438, MapPhase: 410442318, Checksum: 4.9375816e+07},
	"wc-gpu": {Total: 3395827966, MapPhase: 54945846, Checksum: 4.9375816e+07},
	"km-cpu": {Total: 2438583990, MapPhase: 39071418, Checksum: 32105.33296060562,
		Iterations: []time.Duration{406605774, 159272442, 372705774}},
	"km-gpu": {Total: 2334524246, MapPhase: 2709312, Checksum: 32105.33296060562,
		Iterations: []time.Duration{375470242, 122810336, 336243668}},
	"spmv-cpu": {Total: 4300746211, MapPhase: 370443413, Checksum: 193219.0654707551,
		Iterations: []time.Duration{1482489545, 553704693, 764551973}},
	"spmv-gpu": {Total: 3253378788, MapPhase: 13862843, Checksum: 193219.0654707551,
		Iterations: []time.Duration{1148283262, 197124123, 407971403}},
	"pr-cpu": {Total: 6163931523, MapPhase: 1270333333, Checksum: 38.70014048219309,
		Iterations: []time.Duration{1554643841, 1554643841, 1554643841}},
	"pr-gpu": {Total: 2382999418, MapPhase: 7353432, Checksum: 38.70014048219309,
		Iterations: []time.Duration{299671538, 291663940, 291663940}},
	"cc-cpu": {Total: 4485281998, MapPhase: 770333333, Checksum: 1.57479e+06,
		Iterations: []time.Duration{991316666, 999357999, 994607333}},
	"cc-gpu": {Total: 2201679227, MapPhase: 7353432, Checksum: 1.57479e+06,
		Iterations: []time.Duration{233673697, 236378098, 231627432}},
	"lr-cpu": {Total: 2017804824, MapPhase: 52401320, Checksum: 3.7869330449029803,
		Iterations: []time.Duration{172601608, 172601608, 172601608}},
	"lr-gpu": {Total: 1874509603, MapPhase: 2738509, Checksum: 3.7869330449029803,
		Iterations: []time.Duration{128832009, 122838797, 122838797}},
	"pa-cpu": {Total: 1759625000, MapPhase: 9812500, Checksum: 26947.55873298645,
		Iterations: []time.Duration{129812500, 129812500}},
	"pa-gpu": {Total: 1748044720, MapPhase: 4021860, Checksum: 26947.55873298645,
		Iterations: []time.Duration{124022860, 124021860}},
}

func goldenWCParams() WordCountParams {
	return WordCountParams{Bytes: 512 << 20, Parallelism: 8, Seed: 10}
}

func goldenKMParams() KMeansParams {
	return KMeansParams{Points: 2_000_000, K: 4, D: 8, Iterations: 3, Parallelism: 8,
		UseCache: true, FromHDFS: true, WriteResult: true, Seed: 1}
}

func goldenSpMVParams() SpMVParams {
	return SpMVParams{MatrixBytes: 256 << 20, NNZPerRow: 8, Iterations: 3, Parallelism: 8,
		UseCache: true, FromHDFS: true, WriteResult: true, Seed: 5}
}

func goldenPRParams() PageRankParams {
	return PageRankParams{Pages: 1_000_000, EdgesPerPage: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 8}
}

func goldenCCParams() ConnCompParams {
	return ConnCompParams{Pages: 1_000_000, EdgesPerPage: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 9}
}

func goldenLRParams() LinRegParams {
	return LinRegParams{Samples: 2_000_000, D: 8, Iterations: 3, Parallelism: 8, UseCache: true, Seed: 3}
}

func goldenPAParams() PointAddParams {
	return PointAddParams{Points: 1_000_000, Iterations: 2, Parallelism: 8, Seed: 4}
}

// planObservation is one full equivalence sweep: the forced placements
// replayed under the exact golden configurations, plus every workload
// run standalone in each of the three modes so Auto can be compared
// against the forced runs it must match.
type planObservation struct {
	Golden map[string]Result
	Solo   map[string]Result
}

func planEquivalenceRun() planObservation {
	obs := planObservation{Golden: map[string]Result{}, Solo: map[string]Result{}}

	// Replays of the golden sequences: both placements back to back on
	// one cluster, exactly how the eager baselines were recorded.
	{
		g := testSpec(4000).Build()
		g.Run(func() {
			obs.Golden["wc-cpu"] = WordCountCPU(g, goldenWCParams())
			obs.Golden["wc-gpu"] = WordCountGPU(g, goldenWCParams())
		})
	}
	{
		g := testSpec(2000).Build()
		g.Run(func() {
			obs.Golden["km-cpu"] = KMeansCPU(g, goldenKMParams())
			obs.Golden["km-gpu"] = KMeansGPU(g, goldenKMParams())
		})
	}
	{
		g := testSpec(1000).Build()
		g.Run(func() {
			obs.Golden["spmv-cpu"] = SpMVCPU(g, goldenSpMVParams())
			obs.Golden["spmv-gpu"] = SpMVGPU(g, goldenSpMVParams())
		})
	}
	{
		g := testSpec(2000).Build()
		g.Run(func() {
			obs.Golden["pr-cpu"] = PageRankCPU(g, goldenPRParams())
			obs.Golden["pr-gpu"] = PageRankGPU(g, goldenPRParams())
		})
	}
	{
		g := testSpec(2000).Build()
		g.Run(func() {
			obs.Golden["cc-cpu"] = ConnCompCPU(g, goldenCCParams())
			obs.Golden["cc-gpu"] = ConnCompGPU(g, goldenCCParams())
		})
	}
	{
		g := testSpec(2000).Build()
		g.Run(func() {
			obs.Golden["lr-cpu"] = LinRegCPU(g, goldenLRParams())
			obs.Golden["lr-gpu"] = LinRegGPU(g, goldenLRParams())
		})
	}
	{
		g := testSpec(1000).Build()
		g.Run(func() {
			obs.Golden["pa-cpu"] = PointAddCPU(g, goldenPAParams())
			obs.Golden["pa-gpu"] = PointAddGPU(g, goldenPAParams())
		})
	}

	// Standalone runs, one fresh cluster each, in all three modes.
	modes := []plan.Mode{plan.ForceCPU, plan.ForceGPU, plan.Auto}
	for _, m := range modes {
		opts := plan.Options{Mode: m}
		{
			g := testSpec(4000).Build()
			g.Run(func() { obs.Solo["wc-"+m.String()] = WordCount(g, goldenWCParams(), opts) })
		}
		{
			g := testSpec(2000).Build()
			g.Run(func() { obs.Solo["km-"+m.String()] = KMeans(g, goldenKMParams(), opts) })
		}
		{
			g := testSpec(1000).Build()
			g.Run(func() { obs.Solo["spmv-"+m.String()] = SpMV(g, goldenSpMVParams(), opts) })
		}
		{
			g := testSpec(2000).Build()
			g.Run(func() { obs.Solo["pr-"+m.String()] = PageRank(g, goldenPRParams(), opts) })
		}
		{
			g := testSpec(2000).Build()
			g.Run(func() { obs.Solo["cc-"+m.String()] = ConnComp(g, goldenCCParams(), opts) })
		}
		{
			g := testSpec(2000).Build()
			g.Run(func() { obs.Solo["lr-"+m.String()] = LinReg(g, goldenLRParams(), opts) })
		}
		{
			g := testSpec(1000).Build()
			g.Run(func() { obs.Solo["pa-"+m.String()] = PointAdd(g, goldenPAParams(), opts) })
		}
	}
	return obs
}

// TestPlannedMatchesEagerGolden is the refactor's equivalence gate:
// forced-CPU and forced-GPU planned pipelines must reproduce the
// pre-refactor eager results exactly, and Auto placement must land on
// one of the two forced traces (it may pick either device, but it must
// not invent a third behavior).
func TestPlannedMatchesEagerGolden(t *testing.T) {
	obs := planEquivalenceRun()
	for name, want := range eagerGolden {
		if got := obs.Golden[name]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s diverged from the eager golden:\ngot:  %+v\nwant: %+v", name, got, want)
		}
	}
	for _, wl := range []string{"wc", "km", "spmv", "pr", "cc", "lr", "pa"} {
		auto := obs.Solo[wl+"-auto"]
		cpu := obs.Solo[wl+"-cpu"]
		gpu := obs.Solo[wl+"-gpu"]
		if !reflect.DeepEqual(auto, cpu) && !reflect.DeepEqual(auto, gpu) {
			t.Errorf("%s auto placement matches neither forced trace:\nauto: %+v\ncpu:  %+v\ngpu:  %+v",
				wl, auto, cpu, gpu)
		}
	}
}

// TestPlannedDeterministicAcrossGOMAXPROCS extends the determinism
// regression net over the plan layer: the full equivalence sweep —
// every workload, every placement mode — must observe identical
// results under serial and parallel schedulers and on a repeated run.
// Run under -race in CI.
func TestPlannedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	runtime.GOMAXPROCS(1)
	serial := planEquivalenceRun()
	runtime.GOMAXPROCS(4)
	parallel := planEquivalenceRun()

	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("planned runs differ across GOMAXPROCS:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
	again := planEquivalenceRun()
	if !reflect.DeepEqual(parallel, again) {
		t.Errorf("repeated planned run differs:\nfirst:  %+v\nsecond: %+v", parallel, again)
	}
}

// TestEveryWorkloadIsPlanned is the regression net for one execution
// path: every workload, in both forced modes, runs as exactly one plan
// graph (one plan span on the driver track) whose Iterate node emits
// one iteration span per measured iteration.
func TestEveryWorkloadIsPlanned(t *testing.T) {
	workloads := []struct {
		name string
		div  int64
		run  func(g *core.GFlink, opts plan.Options) Result
	}{
		{"wordcount", 4000, func(g *core.GFlink, o plan.Options) Result { return WordCount(g, goldenWCParams(), o) }},
		{"kmeans", 2000, func(g *core.GFlink, o plan.Options) Result { return KMeans(g, goldenKMParams(), o) }},
		{"spmv", 1000, func(g *core.GFlink, o plan.Options) Result { return SpMV(g, goldenSpMVParams(), o) }},
		{"pagerank", 2000, func(g *core.GFlink, o plan.Options) Result { return PageRank(g, goldenPRParams(), o) }},
		{"concomp", 2000, func(g *core.GFlink, o plan.Options) Result { return ConnComp(g, goldenCCParams(), o) }},
		{"linreg", 2000, func(g *core.GFlink, o plan.Options) Result { return LinReg(g, goldenLRParams(), o) }},
		{"pointadd", 1000, func(g *core.GFlink, o plan.Options) Result { return PointAdd(g, goldenPAParams(), o) }},
	}
	for _, wl := range workloads {
		for _, m := range []plan.Mode{plan.ForceCPU, plan.ForceGPU} {
			name := wl.name + "-" + m.String()
			g := testSpec(wl.div).Build()
			var r Result
			g.Run(func() { r = wl.run(g, plan.Options{Mode: m}) })
			var plans, iters int
			for _, sp := range g.Obs.Tracer().Spans() {
				if sp.Track != "driver" {
					continue
				}
				switch sp.Cat {
				case "plan":
					plans++
					if sp.Name != "plan:"+name {
						t.Errorf("%s: plan span %q, want %q", name, sp.Name, "plan:"+name)
					}
				case "iteration":
					iters++
				}
			}
			if plans != 1 {
				t.Errorf("%s: %d plan spans on the driver track, want 1", name, plans)
			}
			if iters != len(r.Iterations) {
				t.Errorf("%s: %d iteration spans, want one per Result.Iterations entry (%d)", name, iters, len(r.Iterations))
			}
		}
	}
}
