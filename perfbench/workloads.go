package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/plan"
	"gflink/internal/workloads"
)

// workload is one named benchmark workload: the deployment it runs on,
// the job, and the independent reference its output is checked against.
type workload struct {
	name string
	spec workloads.Spec
	// job runs one job inside g.Run.
	job func(g *core.GFlink, seed uint64) output
	// reference computes the expected output on separate deployments.
	reference func(seed uint64) (reference, error)
}

// output is what a job returns: its checksum plus the simulated-time
// splits the per-layer metrics report.
type output struct {
	checksum float64
	// records is the streamed record count (stream workloads only).
	records    int64
	rps        float64
	iterations []time.Duration
	mapPhase   time.Duration
}

// reference is the expected output of a workload's jobs: exact is
// compared bit for bit, approx within approxTol relative.
type reference struct {
	exact     float64
	approx    float64
	approxTol float64
	records   int64
}

// check compares a job's output with the reference.
func (r reference) check(o output) error {
	if o.checksum != r.exact {
		return fmt.Errorf("checksum %v, want %v", o.checksum, r.exact)
	}
	if r.approxTol > 0 && math.Abs(o.checksum-r.approx) > r.approxTol*math.Abs(r.approx) {
		return fmt.Errorf("checksum %v differs from reference %v by more than %g relative", o.checksum, r.approx, r.approxTol)
	}
	if o.records != r.records {
		return fmt.Errorf("%d records streamed, want %d", o.records, r.records)
	}
	return nil
}

// paperTestbed is Section 6.1's cluster: 10 slaves with two Tesla
// C2050s each.
func paperTestbed(div int64) workloads.Spec {
	return workloads.Spec{Workers: 10, GPUsPerWorker: 2, Profile: costmodel.C2050, ScaleDivisor: div}
}

// kmeansParams is the fig5a/fig7a KMeans job at 270M nominal points.
func kmeansParams(seed uint64) workloads.KMeansParams {
	return workloads.KMeansParams{Points: 270e6, Iterations: 10, UseCache: true, FromHDFS: true, WriteResult: true, Seed: seed}
}

func kmeansJob(g *core.GFlink, seed uint64) output {
	r := workloads.KMeansGPU(g, kmeansParams(seed))
	return output{checksum: r.Checksum, iterations: r.Iterations, mapPhase: r.MapPhase}
}

// kmeansReference runs KMeansCPU (within 1e-6) and the sibling GPU
// configuration (bit for bit): the cached and the out-of-core runs must
// agree exactly, since tier moves never change output bytes.
func kmeansReference(sibling workloads.Spec) func(seed uint64) (reference, error) {
	return func(seed uint64) (reference, error) {
		cpu := runOnce(kmeansGPU.spec, func(g *core.GFlink) float64 { return workloads.KMeansCPU(g, kmeansParams(seed)).Checksum })
		gpu := runOnce(sibling, func(g *core.GFlink) float64 { return workloads.KMeansGPU(g, kmeansParams(seed)).Checksum })
		return reference{exact: gpu, approx: cpu, approxTol: 1e-6}, nil
	}
}

// oocSpec shrinks the per-device cache region to about half the KMeans
// working set and adds a host paging tier smaller than the overflow,
// so LRU eviction demotes, spills and promotes every iteration.
func oocSpec() workloads.Spec {
	s := paperTestbed(200_000)
	s.CacheBytes = 512 << 20
	s.CachePolicy = core.EvictLRU
	s.HostTierBytes = 256 << 20
	return s
}

func wordcountParams(seed uint64) workloads.WordCountParams {
	return workloads.WordCountParams{Bytes: 56 << 30, Seed: seed}
}

// streamParams is the backpressured pipeline: the source on worker 0
// outruns the GPU window on worker 1 through a two-credit edge.
func streamParams(seed uint64, mode plan.Mode) workloads.BackpressureParams {
	return workloads.BackpressureParams{Records: 1 << 20, Mode: mode, BufferBatches: 2, Seed: seed}
}

var (
	kmeansGPU = &workload{
		name: "kmeans-gpu",
		spec: paperTestbed(200_000),
		job:  kmeansJob,
	}
	kmeansOOC = &workload{
		name: "kmeans-ooc",
		spec: oocSpec(),
		job:  kmeansJob,
	}
	wordcountCPU = &workload{
		name: "wordcount-cpu",
		spec: paperTestbed(1_000_000),
		job: func(g *core.GFlink, seed uint64) output {
			r := workloads.WordCountCPU(g, wordcountParams(seed))
			return output{checksum: r.Checksum, iterations: r.Iterations, mapPhase: r.MapPhase}
		},
		reference: func(seed uint64) (reference, error) {
			gpu := runOnce(paperTestbed(1_000_000), func(g *core.GFlink) float64 { return workloads.WordCountGPU(g, wordcountParams(seed)).Checksum })
			return reference{exact: gpu}, nil
		},
	}
	streamGPU = &workload{
		name: "stream-gpu",
		spec: workloads.Spec{Workers: 2, GPUsPerWorker: 1, Profile: costmodel.C2050, ScaleDivisor: 1},
		job: func(g *core.GFlink, seed uint64) output {
			r := workloads.Backpressure(g, streamParams(seed, plan.ForceGPU))
			return output{checksum: r.Checksum, records: r.Records, rps: r.Throughput}
		},
	}
	allWorkloads = []*workload{kmeansGPU, kmeansOOC, wordcountCPU, streamGPU}
)

func init() {
	kmeansGPU.reference = kmeansReference(oocSpec())
	kmeansOOC.reference = kmeansReference(paperTestbed(200_000))
	streamGPU.reference = func(seed uint64) (reference, error) {
		var r reference
		r.exact = runOnce(streamGPU.spec, func(g *core.GFlink) float64 {
			res := workloads.Backpressure(g, streamParams(seed, plan.ForceCPU))
			r.records = res.Records
			return res.Checksum
		})
		if r.records != 1<<20 {
			return r, fmt.Errorf("CPU pipeline streamed %d records, want %d", r.records, 1<<20)
		}
		return r, nil
	}
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range allWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range allWorkloads {
		out = append(out, w.name)
	}
	return out
}

// runOnce builds a fresh deployment of spec and returns fn's value
// computed inside its simulation.
func runOnce(spec workloads.Spec, fn func(g *core.GFlink) float64) float64 {
	g := spec.Build()
	var v float64
	g.Run(func() { v = fn(g) })
	return v
}

// jobSample is one job's host cost and outcome.
type jobSample struct {
	host       time.Duration
	allocBytes uint64
	allocs     uint64
	sim        time.Duration
	out        output
	// g is the job's deployment, kept only for traced jobs.
	g   *core.GFlink
	err error
}

// runJob builds a fresh deployment (untimed), runs one job closed loop
// and checks its output. With traced set the deployment keeps its
// tracer and counters on; otherwise both are switched off through
// Spec.OnBuild so the job runs the zero-cost observability path.
func runJob(w *workload, seed uint64, ref reference, traced bool, spans *hostSpans) jobSample {
	spec := w.spec
	spec.OnBuild = func(g *core.GFlink) {
		g.Obs.Tracer().SetEnabled(traced)
		g.Obs.Metrics().SetEnabled(traced)
	}
	g := spec.Build()
	var s jobSample
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := hostNow()
	s.sim = g.Run(func() {
		defer func() {
			if p := recover(); p != nil {
				s.err = fmt.Errorf("job panicked: %v", p)
			}
		}()
		s.out = w.job(g, seed)
	})
	t1 := hostNow()
	runtime.ReadMemStats(&after)
	s.host = t1.Sub(t0)
	s.allocBytes = after.TotalAlloc - before.TotalAlloc
	s.allocs = after.Mallocs - before.Mallocs
	if s.err == nil {
		s.err = ref.check(s.out)
	}
	cat := "job"
	if traced {
		s.g, cat = g, "job-traced"
	}
	spans.add(cat, w.name, t0, t1)
	return s
}
