package workloads

import (
	"time"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/kernels"
	"gflink/internal/plan"
)

// fit is a model-fitting workload (KMeans, LinReg): each iteration
// broadcasts the model, reduces every partition (CPU) or block (GPU) to
// one fixed-size partial, sums the partials on the driver and folds the
// sum into the next model. runFit runs it as one plan pipeline.
type fit struct {
	// name prefixes the plan (and so the job) name; source and loop
	// name the source and Iterate nodes; step names the placement
	// group, the step's Either node and its CPU task.
	name, source, loop, step string
	iterations, par          int
	// records is the nominal record count; each is recBytes on the
	// wire, of which the kernel reads the first readBytes.
	records             int64
	recBytes, readBytes int
	// model is the initial model; partial is a partial's length in
	// float32s.
	model   []float32
	partial int
	// perRec is the CPU path's per-record demand and cpu its reduce.
	perRec costmodel.Work
	cpu    func(recs [][]float32, model []float32) []float32
	// kernel is the GPU reduce; runFit fills Extra with the broadcast
	// model, and KernelPerRec doubles as the placement estimate.
	kernel core.GPUMapSpec
	// cpuData and gpuData build the records for each placement.
	cpuData func(j *flink.Job) *flink.Dataset[[]float32]
	gpuData func(j *flink.Job) core.GDST
	// update folds one iteration's summed partials into the model.
	update func(sums, model []float32) []float32
	// stageIn and sink, when set, run on the driver before and after
	// each iteration's step.
	stageIn, sink func(it int, j *flink.Job)
}

// runFit runs f through the plan layer. The source, each iteration's
// step and the cleanup are Either nodes in f.step's placement group:
// the CPU body keeps the records as engine partitions and reduces them
// through the iterator model, the GPU body keeps them as GDST blocks
// and launches the reduce kernel. It returns the final model and the
// run's measurements (without a checksum).
func runFit(g *core.GFlink, f fit, opts plan.Options) ([]float32, Result) {
	c := g.Cluster
	start := c.Clock.Now()
	res := Result{}
	model := f.model

	// Branch-local state: the records as an engine dataset or as blocks.
	var data *flink.Dataset[[]float32]
	var ds core.GDST

	gr := plan.NewGraph(g, f.name+"-"+opts.Mode.String(), opts)
	gr.PlaceGroup(f.step, f.stageCost(g))
	plan.EitherDo(gr, f.source, f.step,
		func(ctx *plan.Ctx) { data = f.cpuData(ctx.Job) },
		func(ctx *plan.Ctx) { ds = f.gpuData(ctx.Job) })
	iters := plan.Iterate(gr, f.loop, f.iterations, func(it int, sub *plan.Graph) {
		if f.stageIn != nil {
			plan.Do(sub, "stage-in", func(ctx *plan.Ctx) { f.stageIn(it, ctx.Job) })
		}
		plan.EitherDo(sub, f.step, f.step,
			func(ctx *plan.Ctx) {
				var sums []float32
				sums, res.MapPhase = f.runCPU(g, ctx.Job, data, model)
				model = f.update(sums, model)
			},
			func(ctx *plan.Ctx) {
				var sums []float32
				sums, res.MapPhase = f.runGPU(g, ctx.Job, ds, model)
				model = f.update(sums, model)
			})
		if f.sink != nil {
			plan.Do(sub, "sink", func(ctx *plan.Ctx) { f.sink(it, ctx.Job) })
		}
	})
	plan.EitherDo(gr, "cleanup", f.step,
		func(ctx *plan.Ctx) {},
		func(ctx *plan.Ctx) {
			g.ReleaseJobCaches(ctx.Job.ID)
			core.FreeBlocks(ds)
		})
	gr.Execute()

	res.Iterations = iters.Durations
	res.Total = c.Clock.Now() - start
	return model, res
}

// runCPU runs one step on the iterator engine and returns the summed
// partials and the map-phase time.
func (f fit) runCPU(g *core.GFlink, j *flink.Job, data *flink.Dataset[[]float32], model []float32) ([]float32, time.Duration) {
	clock := g.Cluster.Clock
	j.Broadcast(int64(4 * len(model)))
	t0 := clock.Now()
	// One fixed-size partial per partition at any scale, so the nominal
	// output count is 1 (not the input's nominal count).
	partials := flink.ProcessPartitions(data, f.step, 4*f.partial, func(_, _ int, in flink.Partition[[]float32]) ([][]float32, int64) {
		j.ChargeCompute(in.Nominal, f.perRec)
		return [][]float32{f.cpu(in.Items, model)}, 1
	})
	sums := make([]float32, f.partial)
	for _, part := range flink.Collect(partials) {
		kernels.MergePartials(sums, part)
	}
	return sums, clock.Now() - t0
}

// runGPU runs one step as a reduce GWork per block: the model is
// written raw into an off-heap buffer and broadcast, and each block's
// kernel reads its worker's copy.
func (f fit) runGPU(g *core.GFlink, j *flink.Job, ds core.GDST, model []float32) ([]float32, time.Duration) {
	c := g.Cluster
	modelBytes := int64(4 * len(model))
	buf := c.TaskManagers[0].Pool.MustAllocate(4 * len(model))
	for i, v := range model {
		putRawF32(buf.Bytes(), i, v)
	}
	perWorker := core.BroadcastBuffer(g, j, buf, modelBytes)
	t0 := c.Clock.Now()
	spec := f.kernel
	workers := g.Cfg.Config.Workers
	spec.Extra = func(b *core.Block) []core.Input {
		return []core.Input{{Buf: perWorker[b.Partition%workers], Nominal: modelBytes}}
	}
	partials := core.GPUReducePartition(g, ds, spec, 1)
	sums := make([]float32, f.partial)
	for _, blk := range core.CollectBlocks(partials) {
		v := blk.View()
		for i := range sums {
			sums[i] += v.Float32At(0, 0, i)
		}
	}
	mapPhase := c.Clock.Now() - t0
	core.FreeBlocks(partials)
	for _, b := range perWorker {
		b.Free()
	}
	buf.Free()
	return sums, mapPhase
}

// stageCost estimates the step for auto placement: the records cross
// PCIe once (then stay cached when the kernel caches its input, and only
// the columns the kernel reads cross when projection is on), the model
// is streamed to every device each iteration, and every block launch
// returns one partial.
func (f fit) stageCost(g *core.GFlink) costmodel.StageCost {
	cpuLanes, gpuLanes := planLanes(g, f.par)
	dataBytes := f.records * int64(f.recBytes)
	blockBytes := g.Cfg.MaxBlockNominal
	if blockBytes <= 0 {
		blockBytes = 128 << 20
	}
	launches := (dataBytes + blockBytes - 1) / blockBytes
	var projected int64
	if g.Cfg.EnableProjection && f.readBytes < f.recBytes {
		projected = f.records * int64(f.readBytes)
	}
	return costmodel.StageCost{
		Records:        f.records,
		CPUPerRec:      f.perRec,
		GPUWork:        f.kernel.KernelPerRec.Scale(float64(f.records)),
		HostToDevice:   dataBytes,
		ProjectedH2D:   projected,
		H2DStreamed:    int64(4 * len(f.model) * gpuLanes),
		DeviceToHost:   int64(4*f.partial) * launches,
		Launches:       launches,
		Executions:     int64(f.iterations),
		CacheResident:  f.kernel.CacheInput,
		CPUParallelism: cpuLanes,
		GPUParallelism: gpuLanes,
	}
}
