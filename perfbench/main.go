// Command perfbench is the repository benchmark: it runs one named
// GFlink workload closed loop (one driver goroutine, GOMAXPROCS=1, one
// job at a time, each job on a fresh deployment), checks every job's output against a
// reference computed once per setup, and prints the end-to-end metrics
// (tracing off) or, with -trace 1, the per-layer metrics of a separate
// traced run. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Usage (from the repository root, via perfbench/run.sh):
//
//	perfbench -workload kmeans-gpu -seed 7 -seconds 15 -trace 0
//
// Simulated-time metrics come from the program's own obs spans and
// counters; host-time metrics come from the host clock, which is read
// only through hostNow and never reaches an obs timestamp.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run repeats its set-up (deployment
// build, reference computation, warm-up jobs); setup_s is their median.
const setupReps = 5

// warmupJobs run (and are checked) in every set-up repetition before
// any job is timed, so lazy initialisation and kernel registration are
// paid outside the measured window.
const warmupJobs = 2

// minJobs keeps the tail percentile defined (≥10 samples beyond it)
// even on a short -seconds.
const minJobs = 21

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 7, "workload seed (feeds the input generators only)")
	seconds := flag.Float64("seconds", 15, "host seconds the job loop measures")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench-out", "directory the traced run writes its trace into")
	flag.Parse()

	w, ok := workloadByName(*name)
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -seconds > 0 and -trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	// The simulation runs one virtual-clock process at a time, so a
	// second P adds only cross-CPU wakeups; on a shared 2-vCPU host those
	// double job times whenever a co-tenant loads the other CPU, while a
	// single P roughly halves that sensitivity at the same calm-host cost.
	runtime.GOMAXPROCS(1)
	printHostFacts()
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds, *out)
	} else {
		res, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	printMetrics(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// runEndToEnd sets up setupReps times, then runs untraced jobs closed
// loop for seconds of host time, probing host speed before every job.
// Its host-time metrics are scaled to the reference host speed (see
// probeRef); the raw values are printed alongside.
func runEndToEnd(w *workload, seed uint64, seconds float64) (result, error) {
	var speed hostSpeed
	ref, setup, tally, err := setUp(w, seed, nil, &speed)
	if err != nil {
		return result{}, err
	}
	var jobs []jobSample
	start := hostNow()
	for len(jobs) < minJobs || hostNow().Sub(start).Seconds() < seconds {
		speed.sample()
		s := runJob(w, seed, ref, false, nil)
		if s.err == nil && len(jobs) > 0 && s.sim != jobs[0].sim {
			s.err = fmt.Errorf("simulated makespan %v differs from the first job's %v", s.sim, jobs[0].sim)
		}
		tally.add(s)
		jobs = append(jobs, s)
	}
	hostS := make([]float64, len(jobs))
	allocMB := make([]float64, len(jobs))
	allocs := make([]float64, len(jobs))
	for i, s := range jobs {
		hostS[i] = s.host.Seconds()
		allocMB[i] = float64(s.allocBytes) / 1e6
		allocs[i] = float64(s.allocs)
	}
	tail, pct := tailPercentile(hostS)
	f := speed.scale()
	fmt.Printf("jobs timed: %d\n", len(jobs))
	fmt.Printf("host-speed probe: median %.3f ms over %d probes (reference %.3f ms), scale %.4f; raw job p50 %.6f s, tail %.6f s, setup %.6f s\n",
		1e3*median(speed.probes), len(speed.probes), 1e3*probeRef.Seconds(), f, median(hostS), tail, median(setup))
	// Printed but not gated: the tail follows co-tenant bursts on a shared
	// host, so the traced run reports it as a per-layer metric.
	fmt.Printf("job_host_s.tail (p%d, %d samples beyond it) %.6g s\n", pct, len(jobs)-rankOf(pct, len(jobs)), tail*f)
	last := jobs[len(jobs)-1]
	fmt.Printf("sim_s %.9g s, sim_rps %.6g 1/s (virtual clock, the same every job)\n", last.sim.Seconds(), last.out.rps)
	return tally.result(map[string]metric{
		"job_host_s.p50":   {median(hostS) * f, "s"},
		"host_alloc_mb":    {mean(allocMB), "MB"},
		"host_allocs":      {mean(allocs), "count"},
		"host_rss_peak_mb": {peakRSSMB(), "MB"},
		"setup_s":          {median(setup) * f, "s"},
	}), nil
}

// setUp repeats the set-up setupReps times: reference computation plus
// warm-up jobs, each on fresh deployments. Every repetition must
// reproduce the same reference. A host-speed probe precedes each
// repetition, outside its timing.
func setUp(w *workload, seed uint64, spans *hostSpans, speed *hostSpeed) (reference, []float64, *tally, error) {
	var ref reference
	t := &tally{}
	durs := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		speed.sample()
		t0 := hostNow()
		r, err := w.reference(seed)
		if err != nil {
			return ref, nil, nil, fmt.Errorf("reference: %w", err)
		}
		if rep > 0 && r != ref {
			return ref, nil, nil, fmt.Errorf("reference differs between set-ups: %+v vs %+v", r, ref)
		}
		ref = r
		for i := 0; i < warmupJobs; i++ {
			t.add(runJob(w, seed, ref, false, nil))
		}
		t1 := hostNow()
		spans.add("setup", fmt.Sprintf("setup %d", rep), t0, t1)
		durs = append(durs, t1.Sub(t0).Seconds())
	}
	return ref, durs, t, nil
}

// tally counts attempted and failed jobs.
type tally struct{ attempted, failed int }

func (t *tally) add(s jobSample) {
	t.attempted++
	if s.err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: job %d failed: %v\n", t.attempted, s.err)
	}
}

func (t *tally) result(m map[string]metric) result {
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}
}

// printHostFacts stamps the run with the facts its numbers depend on.
func printHostFacts() {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit)
}

// printMetrics writes one human-readable line per metric, sorted.
func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	ratio := 0.0
	if res.Attempted > 0 {
		ratio = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("fail_ratio %d/%d = %g\n", res.Failed, res.Attempted, ratio)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// hostNow reads the host clock. It is the benchmark's only host-time
// source; its readings are measurands and never reach the simulation.
func hostNow() time.Time {
	return time.Now() //gflink:allow-wallclock host time is what the benchmark measures, never a simulation input
}
