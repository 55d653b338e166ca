package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gpu"
	"gflink/internal/hdfs"
	"gflink/internal/kernels"
	"gflink/internal/membuf"
	"gflink/internal/netsim"
	"gflink/internal/obs"
	"gflink/internal/plan"
	"gflink/internal/stream"
	"gflink/internal/vclock"
	"gflink/internal/workloads"
)

// layerReps is how many timed repetitions each layer call gets after
// one warm-up repetition; the reported value is their median.
const layerReps = 5

// layerBench is one host-clock measurement of a single module's public
// functions, run with tracing off on a private deployment or clock.
// run performs one repetition, timing only its measured loop with sw,
// and returns the operation count that loop did.
type layerBench struct {
	metric string
	run    func(sw *stopwatch) int
}

// stopwatch brackets the measured part of one layer repetition, so
// clock, device and buffer set-up stay outside it.
type stopwatch struct{ t0, t1 time.Time }

func (s *stopwatch) start() { s.t0 = hostNow() }
func (s *stopwatch) stop()  { s.t1 = hostNow() }

// layerBenches lists the per-layer host-time measurements in the order
// they run.
var layerBenches = []layerBench{
	{"vclock.handoff_ns", benchHandoff},
	{"vclock.timer_ns", benchTimers},
	{"gpu.stream_op_ns", benchStreamOps},
	{"core.gwork_ns", benchGWorks},
	{"core.cache_hit_ns", func(sw *stopwatch) int { return benchCache(sw, true) }},
	{"core.cache_miss_ns", func(sw *stopwatch) int { return benchCache(sw, false) }},
	{"core.tier_roundtrip_ns", benchTierRoundTrip},
	{"membuf.alloc_free_ns", benchAllocFree},
	{"kernels.kmeans_assign_ns_per_point", benchKMeansAssign},
	{"kernels.window_agg_ns_per_rec", benchWindowAgg},
	{"flink.reduce_ns_per_rec", benchReduce},
	{"flink.task_ns", benchTasks},
	{"netsim.transfer_ns", benchTransfer},
	{"hdfs.read_split_ns", benchReadSplit},
	{"plan.stage_ns", benchPlanStages},
	{"stream.batch_ns", benchStreamBatches},
	{"obs.record_ns.on", func(sw *stopwatch) int { return benchRecord(sw, true) }},
	{"obs.record_ns.off", func(sw *stopwatch) int { return benchRecord(sw, false) }},
}

// runLayers times every layer bench and adds core.gwork_allocs, the
// heap allocations per GWork on the submit→wait path.
func runLayers(spans *hostSpans) map[string]metric {
	m := map[string]metric{}
	for _, b := range layerBenches {
		var sw stopwatch
		b.run(&sw)
		perOp := make([]float64, layerReps)
		for i := range perOp {
			ops := b.run(&sw)
			spans.add("layer", b.metric, sw.t0, sw.t1)
			perOp[i] = float64(sw.t1.Sub(sw.t0).Nanoseconds()) / float64(ops)
		}
		m[b.metric] = metric{median(perOp), "ns"}
	}
	m["core.gwork_allocs"] = metric{gworkAllocs(), "count"}
	return m
}

// benchHandoff ping-pongs an Event pair between two processes; each
// round trip is two handoffs.
func benchHandoff(sw *stopwatch) int {
	const rounds = 20000
	c := vclock.New()
	c.Run(func() {
		ping, pong := vclock.NewEvent(c), vclock.NewEvent(c)
		c.Go("pong", func() {
			for i := 0; i < rounds; i++ {
				ping.Wait()
				ping.Reset()
				pong.Set()
			}
		})
		sw.start()
		for i := 0; i < rounds; i++ {
			ping.Set()
			pong.Wait()
			pong.Reset()
		}
		sw.stop()
	})
	return 2 * rounds
}

// benchTimers has 64 processes sleep to shared deadlines, so every
// dispatch drains a co-deadline batch; the cost is per timer.
func benchTimers(sw *stopwatch) int {
	const procs, rounds = 64, 200
	c := vclock.New()
	c.Run(func() {
		sw.start()
		grp := vclock.NewGroup(c)
		for p := 0; p < procs; p++ {
			grp.Go(fmt.Sprintf("sleeper%d", p), func() {
				for i := 0; i < rounds; i++ {
					c.Sleep(time.Microsecond)
				}
			})
		}
		grp.Wait()
		sw.stop()
	})
	return procs * rounds
}

// benchStreamOps enqueues async H2D copies on one gpu.Stream,
// synchronizing every 64 ops.
func benchStreamOps(sw *stopwatch) int {
	const ops = 20000
	c := vclock.New()
	model := costmodel.Default()
	dev := gpu.NewDevice(c, 0, 0, costmodel.C2050, model.PCIe)
	pool := membuf.NewPool(c, model, membuf.Config{})
	c.Run(func() {
		st := dev.NewStream(model.CPU)
		hb := pool.MustAllocate(4096)
		hb.Pin()
		db, err := dev.Malloc(4096, 4096)
		if err != nil {
			panic(err)
		}
		sw.start()
		for i := 0; i < ops; i++ {
			st.H2DAsync(db, hb, 4096)
			if i%64 == 63 {
				st.Synchronize()
			}
		}
		st.Synchronize()
		sw.stop()
		dev.Free(db)
		hb.Unpin()
		hb.Free()
		dev.Close()
	})
	return ops
}

const doubleKernel = "perfbench.double"

var registerKernel sync.Once

// gworkRig is a one-GPU stream manager with a registered kernel, the
// set-up the hot-path GWork measurement runs on.
func gworkRig(works int, between func()) {
	registerKernel.Do(func() {
		gpu.Register(doubleKernel, func(ctx *gpu.KernelCtx) error {
			in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
			for i := 0; i < ctx.N; i++ {
				v := math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
				binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(2*v))
			}
			ctx.Charge(costmodel.Work{Flops: float64(ctx.Nominal), BytesRead: 4 * float64(ctx.Nominal), BytesWritten: 4 * float64(ctx.Nominal)})
			return nil
		})
	})
	const n = 64
	c := vclock.New()
	model := costmodel.Default()
	wrapper := core.NewCUDAWrapper(c, model)
	dev := gpu.NewDevice(c, 0, 0, costmodel.C2050, model.PCIe)
	mem := core.NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10)
	mgr := core.NewStreamManager(core.StreamConfig{Clock: c, Wrapper: wrapper, Memories: []*core.GMemoryManager{mem}})
	pool := membuf.NewPool(c, model, membuf.Config{})
	c.Run(func() {
		in, out := pool.MustAllocate(4*n), pool.MustAllocate(4*n)
		wp := mgr.Pool()
		one := func() {
			w := wp.Get()
			w.ExecuteName = doubleKernel
			w.Size, w.Nominal, w.BlockSize, w.GridSize = n, n, 256, 1
			w.In = append(w.In, core.Input{Buf: in, Nominal: 4 * n})
			w.Out, w.OutNominal = out, 4*n
			mgr.Submit(w)
			if err := w.Wait(); err != nil {
				panic(err)
			}
			wp.Put(w)
		}
		for i := 0; i < 256; i++ {
			one()
		}
		between()
		for i := 0; i < works; i++ {
			one()
		}
		between()
		mgr.Close()
		dev.Close()
	})
}

// benchGWorks times Submit→Wait on pooled GWorks.
func benchGWorks(sw *stopwatch) int {
	const works = 4000
	laps := 0
	gworkRig(works, func() {
		if laps == 0 {
			sw.start()
		} else {
			sw.stop()
		}
		laps++
	})
	return works
}

// gworkAllocs counts heap allocations per GWork in steady state.
func gworkAllocs() float64 {
	const works = 4000
	var ms [2]runtime.MemStats
	k := 0
	gworkRig(works, func() {
		runtime.ReadMemStats(&ms[k])
		k++
	})
	return float64(ms[1].Mallocs-ms[0].Mallocs) / works
}

// benchCache times GMemoryManager.Acquire on a resident key (a hit,
// paired with Release) or an absent one (a miss).
func benchCache(sw *stopwatch, hit bool) int {
	const ops = 200000
	c := vclock.New()
	model := costmodel.Default()
	wrapper := core.NewCUDAWrapper(c, model)
	dev := gpu.NewDevice(c, 0, 0, costmodel.C2050, model.PCIe)
	mem := core.NewMemoryManager(dev, wrapper, 1<<30)
	c.Run(func() {
		buf, err := dev.Malloc(1<<20, 64)
		if err != nil {
			panic(err)
		}
		key := core.CacheKey{JobID: 1}
		if !mem.Insert(key, buf, 1<<20) {
			panic("perfbench: cache insert rejected")
		}
		mem.Release(key)
		if !hit {
			key.Block = 1
		}
		sw.start()
		for i := 0; i < ops; i++ {
			if _, ok := mem.Acquire(key); ok {
				mem.Release(key)
			}
		}
		sw.stop()
		mem.ReleaseJob(1)
		dev.Close()
	})
	return ops
}

// benchTierRoundTrip alternates two keys through a one-entry LRU
// region backed by a host tier: each Acquire promotes one entry and
// demotes the other.
func benchTierRoundTrip(sw *stopwatch) int {
	const ops = 3000
	const nominal = 1 << 20
	c := vclock.New()
	model := costmodel.Default()
	wrapper := core.NewCUDAWrapper(c, model)
	dev := gpu.NewDevice(c, 0, 0, costmodel.C2050, model.PCIe)
	mem := core.NewMemoryManager(dev, wrapper, nominal, core.WithPolicy(core.EvictLRU), core.WithHostTierBytes(64*nominal))
	c.Run(func() {
		keys := [2]core.CacheKey{{JobID: 1, Block: 0}, {JobID: 1, Block: 1}}
		for _, k := range keys {
			buf, err := dev.Malloc(nominal, 64)
			if err != nil {
				panic(err)
			}
			if !mem.Insert(k, buf, nominal) {
				panic("perfbench: tier insert rejected")
			}
			mem.Release(k)
		}
		sw.start()
		for i := 0; i < ops; i++ {
			k := keys[i%2]
			if _, ok := mem.Acquire(k); !ok {
				panic("perfbench: demoted entry not promoted")
			}
			mem.Release(k)
		}
		sw.stop()
		mem.ReleaseJob(1)
		dev.Close()
	})
	return ops
}

// benchAllocFree allocates and frees one-page off-heap buffers.
func benchAllocFree(sw *stopwatch) int {
	const ops = 5000
	c := vclock.New()
	pool := membuf.NewPool(c, costmodel.Default(), membuf.Config{})
	c.Run(func() {
		sw.start()
		for i := 0; i < ops; i++ {
			b := pool.MustAllocate(4096)
			b.Free()
		}
		sw.stop()
	})
	return ops
}

// benchKMeansAssign runs the CPU assign kernel over 4096 points (k=10,
// d=20, the KMeans workload's shape).
func benchKMeansAssign(sw *stopwatch) int {
	const points, k, d = 4096, 10, 20
	pts := make([][]float32, points)
	for i := range pts {
		pts[i] = make([]float32, d)
		for j := range pts[i] {
			pts[i][j] = float32((i*31+j*7)%101) / 3
		}
	}
	cents := make([]float32, k*d)
	for i := range cents {
		cents[i] = float32(i%97) / 2
	}
	const reps = 20
	sw.start()
	for r := 0; r < reps; r++ {
		kernels.CPUKMeansAssign(pts, cents, k, d)
	}
	sw.stop()
	return reps * points
}

// benchWindowAgg aggregates packed (slot, value) records into 256
// slots, the stream workload's window shape.
func benchWindowAgg(sw *stopwatch) int {
	const records, slots = 1 << 16, 256
	in := make([]byte, 8*records)
	for i := 0; i < records; i++ {
		binary.LittleEndian.PutUint32(in[8*i:], uint32(i*2654435761))
		binary.LittleEndian.PutUint32(in[8*i+4:], math.Float32bits(float32(i%1000)/7))
	}
	sums := make([]float32, slots)
	const reps = 20
	sw.start()
	for r := 0; r < reps; r++ {
		kernels.CPUWindowAgg(in, records, slots, sums)
	}
	sw.stop()
	return reps * records
}

// onCluster runs fn inside a fresh two-worker baseline cluster.
func onCluster(fn func(c *flink.Cluster)) {
	c := flink.NewCluster(flink.Config{Workers: 2, Model: costmodel.Default()})
	c.Clock.Run(func() { fn(c) })
}

// benchReduce runs ReduceByKey over 10k records with 4096 int keys
// (WordCount's vocabulary size).
func benchReduce(sw *stopwatch) int {
	const records = 10000
	onCluster(func(c *flink.Cluster) {
		j := c.NewJob("reduce")
		ds := flink.Generate(j, "recs", records, 8, 0, func(_ int, ord int64) [2]int {
			return [2]int{int(ord*2654435761) % 4096, 1}
		})
		sw.start()
		out := flink.ReduceByKey(ds, "sum", costmodel.Work{}, func(v [2]int) int { return v[0] }, func(a, b [2]int) [2]int {
			return [2]int{a[0], a[1] + b[1]}
		})
		flink.Count(out)
		sw.stop()
	})
	return records
}

// benchTasks runs trivial 64-partition ProcessPartitions operators;
// the cost is per task.
func benchTasks(sw *stopwatch) int {
	const parts, ops = 64, 100
	onCluster(func(c *flink.Cluster) {
		j := c.NewJob("tasks")
		ds := flink.Generate(j, "parts", parts, 8, parts, func(_ int, ord int64) int64 { return ord })
		sw.start()
		for i := 0; i < ops; i++ {
			flink.ProcessPartitions(ds, "noop", 8, func(p, worker int, in flink.Partition[int64]) ([]int64, int64) {
				return nil, 0
			})
		}
		sw.stop()
	})
	return parts * ops
}

// benchTransfer times netsim transfers between two nodes.
func benchTransfer(sw *stopwatch) int {
	const ops = 50000
	c := vclock.New()
	net := netsim.New(c, costmodel.Default().Net, 2)
	c.Run(func() {
		sw.start()
		for i := 0; i < ops; i++ {
			net.Transfer(0, 1, 1<<20)
		}
		sw.stop()
	})
	return ops
}

// benchReadSplit reads the splits of a 64 MiB HDFS file from node 1.
func benchReadSplit(sw *stopwatch) int {
	const ops = 50000
	c := vclock.New()
	model := costmodel.Default()
	net := netsim.New(c, model.Net, 3)
	fs := hdfs.New(c, model.Disk, net, hdfs.Config{})
	c.Run(func() {
		f := fs.Create("bench-input", 64<<20)
		splits := fs.Splits(f, 8)
		sw.start()
		for i := 0; i < ops; i++ {
			fs.ReadSplit(1, splits[i%len(splits)])
		}
		sw.stop()
	})
	return ops
}

// quietSpec is a deployment of workers nodes with one GPU each, with
// tracing and counters off.
func quietSpec(workers int) workloads.Spec {
	return workloads.Spec{Workers: workers, GPUsPerWorker: 1, Profile: costmodel.C2050, ScaleDivisor: 1, OnBuild: func(g *core.GFlink) {
		g.Obs.Tracer().SetEnabled(false)
		g.Obs.Metrics().SetEnabled(false)
	}}
}

// benchPlanStages executes a plan of 10000 empty stages.
func benchPlanStages(sw *stopwatch) int {
	const stages = 10000
	names := make([]string, stages)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	g := quietSpec(1).Build()
	g.Run(func() {
		gr := plan.NewGraph(g, "bench", plan.Options{})
		for _, n := range names {
			plan.Do(gr, n, func(*plan.Ctx) {})
		}
		sw.start()
		gr.Execute()
		sw.stop()
	})
	return stages
}

// benchStreamBatches streams 64Ki records source→sink across two
// workers; the cost is per micro-batch.
func benchStreamBatches(sw *stopwatch) int {
	g := quietSpec(2).Build()
	var res stream.Result
	g.Run(func() {
		pl := stream.New(g, "bench", stream.WithMode(plan.ForceCPU))
		pl.Source("source", 0, stream.SourceSpec{Records: 1 << 16, Seed: 1}).Sink("sink", 1)
		sw.start()
		res = pl.Run()
		sw.stop()
	})
	return int(res.Batches)
}

// benchRecord times Tracer.Record with recording on or off.
func benchRecord(sw *stopwatch, on bool) int {
	const ops = 200000
	tr := obs.NewTracer()
	tr.SetEnabled(on)
	tr.Reserve(ops)
	c := vclock.New()
	c.Run(func() {
		t := c.Now()
		sw.start()
		for i := 0; i < ops; i++ {
			tr.Record("bench", "bench", "record", t, t)
		}
		sw.stop()
	})
	return ops
}
