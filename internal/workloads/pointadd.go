package workloads

import (
	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
	"gflink/internal/plan"
)

// PointAddParams configures the PointAdd microbenchmark of
// Algorithm 3.1, used in the GMapper-speedup (Fig 8b) and concurrency
// (Fig 8c/8d) experiments.
type PointAddParams struct {
	// Points is the nominal point count.
	Points int64
	// Iterations repeats the map (iTimes in Algorithm 3.1).
	Iterations  int
	Parallelism int
	UseCache    bool
	Seed        uint64
}

func (p *PointAddParams) defaults() {
	if p.Iterations == 0 {
		p.Iterations = 1
	}
}

var pointAddDelta = [3]float32{1.0, 2.0, 3.0}

func pointAddCoord(seed uint64, ord int64, j int) float32 {
	return unit(seed, uint64(ord)*3+uint64(j)) * 10
}

// PointAdd runs Algorithm 3.1 through the plan layer as one pipeline.
// The source, each iteration's map and the final checksum are Either
// nodes in the "add" placement group: the CPU body maps engine records
// through the iterator model, the GPU body runs the gpuMapPartition
// kernel over AoS GDST blocks. Forced modes reproduce the former eager
// PointAddCPU/PointAddGPU drivers exactly; Auto lets the cost model
// pick.
func PointAdd(g *core.GFlink, p PointAddParams, opts plan.Options) Result {
	p.defaults()
	c := g.Cluster
	start := c.Clock.Now()
	res := Result{}

	// Branch-local state: the CPU placement maps an engine dataset, the
	// GPU placement a chain of GDSTs starting at the source blocks.
	var pts *flink.Dataset[[3]float32]
	var ds, cur core.GDST

	gr := plan.NewGraph(g, "pointadd-"+opts.Mode.String(), opts)
	// Every iteration ships its input points to the devices and copies
	// the moved points back: the input changes each iteration, so the
	// cache never saves a transfer.
	cpuLanes, gpuLanes := planLanes(g, p.Parallelism)
	gr.PlaceGroup("add", costmodel.StageCost{
		Records:        p.Points,
		CPUPerRec:      kernels.PointAddWork,
		GPUWork:        kernels.PointAddWork.Scale(float64(p.Points)),
		H2DStreamed:    p.Points * 12,
		DeviceToHost:   p.Points * 12,
		Launches:       int64(cpuLanes),
		Executions:     int64(p.Iterations),
		CPUParallelism: cpuLanes,
		GPUParallelism: gpuLanes,
	})
	plan.EitherDo(gr, "points", "add",
		func(ctx *plan.Ctx) {
			pts = flink.Generate(ctx.Job, "points", p.Points, 12, p.Parallelism, func(part int, ord int64) [3]float32 {
				return [3]float32{
					pointAddCoord(p.Seed, ord, 0),
					pointAddCoord(p.Seed, ord, 1),
					pointAddCoord(p.Seed, ord, 2),
				}
			})
		},
		func(ctx *plan.Ctx) {
			ds = core.NewGDST(g, ctx.Job, kernels.Point3Schema, gstruct.AoS, p.Points, p.Parallelism, func(part int, v gstruct.View, i int, ord int64) {
				for jj := 0; jj < 3; jj++ {
					v.PutFloat32At(i, jj, 0, pointAddCoord(p.Seed, ord, jj))
				}
			})
			cur = ds
		})
	iters := plan.Iterate(gr, "add", p.Iterations, func(it int, sub *plan.Graph) {
		plan.EitherDo(sub, "addPoint", "add",
			func(ctx *plan.Ctx) {
				tm0 := c.Clock.Now()
				pts = flink.Map(pts, "addPoint", kernels.PointAddWork, 12, func(pt [3]float32) [3]float32 {
					return kernels.CPUPointAdd(pt, pointAddDelta)
				})
				res.MapPhase = c.Clock.Now() - tm0
			},
			func(ctx *plan.Ctx) {
				tm0 := c.Clock.Now()
				next := core.GPUMapPartition(g, cur, core.GPUMapSpec{
					Name:       "addPoint",
					Kernel:     kernels.PointAddKernel,
					OutSchema:  kernels.Point3Schema,
					OutLayout:  gstruct.AoS,
					CacheInput: p.UseCache && it == 0,
					Args: []int64{
						kernels.F32Arg(pointAddDelta[0]),
						kernels.F32Arg(pointAddDelta[1]),
						kernels.F32Arg(pointAddDelta[2]),
					},
				})
				res.MapPhase = c.Clock.Now() - tm0
				if cur != ds {
					core.FreeBlocks(cur)
				}
				cur = next
			})
	})
	plan.EitherDo(gr, "checksum", "add",
		func(ctx *plan.Ctx) {
			for pi := 0; pi < pts.Partitions(); pi++ {
				for _, pt := range pts.Partition(pi).Items {
					res.Checksum += float64(pt[0]) + float64(pt[1]) + float64(pt[2])
				}
			}
		},
		func(ctx *plan.Ctx) {
			for pi := 0; pi < cur.Partitions(); pi++ {
				for _, b := range cur.Partition(pi).Items {
					v := b.View()
					for i := 0; i < b.N; i++ {
						res.Checksum += float64(v.Float32At(i, 0, 0)) + float64(v.Float32At(i, 1, 0)) + float64(v.Float32At(i, 2, 0))
					}
				}
			}
			g.ReleaseJobCaches(ctx.Job.ID)
			if cur != ds {
				core.FreeBlocks(cur)
			}
			core.FreeBlocks(ds)
		})
	gr.Execute()

	res.Iterations = iters.Durations
	res.Total = c.Clock.Now() - start
	return res
}

// PointAddCPU runs the baseline map.
func PointAddCPU(g *core.GFlink, p PointAddParams) Result {
	return PointAdd(g, p, plan.Options{Mode: plan.ForceCPU})
}

// PointAddGPU runs the gpuMapPartition version of Algorithm 3.1.
func PointAddGPU(g *core.GFlink, p PointAddParams) Result {
	return PointAdd(g, p, plan.Options{Mode: plan.ForceGPU})
}
