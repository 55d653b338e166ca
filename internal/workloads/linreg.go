package workloads

import (
	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
	"gflink/internal/plan"
)

// LinRegParams configures the LinearRegression benchmark (batch
// gradient descent over dense samples, Fig 6b).
type LinRegParams struct {
	// Samples is the nominal sample count (150-270 million in the
	// paper).
	Samples int64
	// D is the feature dimension.
	D int
	// Iterations is the gradient-descent step count.
	Iterations int
	// LearningRate for the weight update.
	LearningRate float32
	Parallelism  int
	UseCache     bool
	// MetaCols widens each sample with unread trailing float32 metadata
	// columns after the label; the gradient kernel reads only the D+1
	// feature/label prefix, so projection can drop them from the
	// transfer channel (the abl-projection setup).
	MetaCols int
	Seed     uint64
}

func (p *LinRegParams) defaults() {
	if p.D == 0 {
		p.D = 32
	}
	if p.Iterations == 0 {
		p.Iterations = 10
	}
	if p.LearningRate == 0 {
		p.LearningRate = 0.1
	}
}

// trueWeights is the planted model the generator samples from.
func linregTrueWeights(seed uint64, d int) []float32 {
	w := make([]float32, d+1)
	for j := range w {
		w[j] = unit(seed+555, uint64(j))*2 - 1
	}
	return w
}

// linregSample generates feature j (j<d) or the label (j==d) of sample
// ord.
func linregSample(seed uint64, truth []float32, ord int64, j, d int) float32 {
	if j < d {
		return unit(seed, uint64(ord)*uint64(d+1)+uint64(j))*2 - 1
	}
	// Label: truth·x + bias + small noise.
	var y float32 = truth[d]
	for jj := 0; jj < d; jj++ {
		y += truth[jj] * (unit(seed, uint64(ord)*uint64(d+1)+uint64(jj))*2 - 1)
	}
	return y + (unit(seed+999, uint64(ord))*0.02 - 0.01)
}

// LinReg runs batch gradient descent through the plan layer as one
// pipeline (see runFit) in the "gradient" placement group: the CPU body
// reduces engine partitions through the iterator model, the GPU body
// launches the gradient kernel over SoA GDST blocks. Forced modes
// reproduce the former eager LinRegCPU/LinRegGPU drivers exactly; Auto
// lets the cost model pick.
func LinReg(g *core.GFlink, p LinRegParams, opts plan.Options) Result {
	p.defaults()
	truth := linregTrueWeights(p.Seed, p.D)
	var n float32 // real sample count, set by the source
	weights, res := runFit(g, fit{
		name: "linreg", source: "samples", loop: "descent", step: "gradient",
		iterations: p.Iterations, par: p.Parallelism,
		// The kernel reads the D features and the label; projection keeps
		// the MetaCols tail on the host.
		records: p.Samples, recBytes: 4 * (p.D + 1 + p.MetaCols), readBytes: 4 * (p.D + 1),
		model:   make([]float32, p.D+1),
		partial: p.D + 2,
		// The JVM iterator path pays tuple access and boxing per feature
		// on top of the arithmetic.
		perRec: costmodel.Work{Flops: float64(20*p.D + 8), BytesRead: float64(4 * (p.D + 1))},
		cpu: func(recs [][]float32, w []float32) []float32 {
			return kernels.CPULinRegGrad(recs, w, p.D)
		},
		kernel: core.GPUMapSpec{
			Name:   "linregGrad",
			Kernel: kernels.LinRegGradKernel,
			OutSchema: gstruct.MustNew("LRPartial", 4,
				gstruct.Field{Name: "grad", Kind: gstruct.Float32, Len: p.D + 2}),
			OutLayout:    gstruct.AoS,
			CacheInput:   p.UseCache,
			Args:         []int64{int64(p.D)},
			KernelPerRec: kernels.LinRegWork(p.D),
		},
		cpuData: func(j *flink.Job) *flink.Dataset[[]float32] {
			samples := flink.Generate(j, "samples", p.Samples, 4*(p.D+1), p.Parallelism, func(part int, ord int64) []float32 {
				s := make([]float32, p.D+1)
				for jj := 0; jj <= p.D; jj++ {
					s[jj] = linregSample(p.Seed, truth, ord, jj, p.D)
				}
				return s
			})
			n = float32(samples.RealCount())
			return samples
		},
		gpuData: func(j *flink.Job) core.GDST {
			// MetaCols > 0 widens the schema with trailing metadata columns
			// the gradient kernel never reads.
			ds := core.NewGDST(g, j, kernels.SampleSchemaMeta(p.D, p.MetaCols), gstruct.SoA, p.Samples, p.Parallelism, func(part int, v gstruct.View, i int, ord int64) {
				for jj := 0; jj <= p.D; jj++ {
					v.PutFloat32At(i, jj, 0, linregSample(p.Seed, truth, ord, jj, p.D))
				}
				for m := 0; m < p.MetaCols; m++ {
					v.PutFloat32At(i, p.D+1+m, 0, unit(p.Seed+888, uint64(ord)*59+uint64(m)))
				}
			})
			// ds counts blocks, so sum their element counts.
			var real int
			for pi := 0; pi < ds.Partitions(); pi++ {
				for _, b := range ds.Partition(pi).Items {
					real += b.N
				}
			}
			n = float32(real)
			return ds
		},
		update: func(grad, w []float32) []float32 {
			return kernels.ApplyGradient(w, grad, n, p.LearningRate, p.D)
		},
	}, opts)
	res.Checksum = checksum(weights, 0)
	return res
}

// LinRegCPU runs the baseline-Flink linear regression.
func LinRegCPU(g *core.GFlink, p LinRegParams) Result {
	return LinReg(g, p, plan.Options{Mode: plan.ForceCPU})
}

// LinRegGPU runs the GFlink linear regression with the gradient kernel.
func LinRegGPU(g *core.GFlink, p LinRegParams) Result {
	return LinReg(g, p, plan.Options{Mode: plan.ForceGPU})
}
