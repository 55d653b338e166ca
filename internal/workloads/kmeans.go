package workloads

import (
	"encoding/binary"
	"fmt"
	"math"

	"gflink/internal/core"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
	"gflink/internal/plan"
)

// KMeansParams configures the KMeans benchmark (HiBench-style: dense
// float points, fixed iteration count).
type KMeansParams struct {
	// Points is the nominal point count (the paper sweeps 150-270
	// million).
	Points int64
	// K and D are the cluster and dimension counts (HiBench defaults:
	// k=10, d=20).
	K, D int
	// Iterations is the fixed Lloyd iteration count.
	Iterations int
	// Parallelism is the partition count (0 = cluster default).
	Parallelism int
	// UseCache enables the GPU cache for the point blocks (GPU variant
	// only).
	UseCache bool
	// FromHDFS reads the input in the first iteration and WriteResult
	// writes the centroids in the last, as Fig 7a's setup does.
	FromHDFS    bool
	WriteResult bool
	// MetaCols widens each point with unread trailing float32 metadata
	// columns (record ids, tags). The assign kernel only reads the first
	// D coordinate columns, so with column projection enabled these
	// columns never cross PCIe — the abl-projection setup.
	MetaCols int
	// Seed keys the generators.
	Seed uint64
}

func (p *KMeansParams) defaults() {
	if p.K == 0 {
		p.K = 10
	}
	if p.D == 0 {
		p.D = 20
	}
	if p.Iterations == 0 {
		p.Iterations = 10
	}
}

// pointBytes is the on-wire record size (coordinates plus metadata).
func (p KMeansParams) pointBytes() int { return 4 * (p.D + p.MetaCols) }

// kmeansCoord generates coordinate j of nominal point ord: points
// cluster around K true centers so the algorithm has real structure.
func kmeansCoord(seed uint64, ord int64, j, k int) float32 {
	center := mix(seed, uint64(ord)) % uint64(k)
	base := unit(seed+uint64(center)*977+uint64(j)*31, 0) * 100
	noise := unit(seed+123457, uint64(ord)*29+uint64(j))*4 - 2
	return base + noise
}

// initialCentroids derives the deterministic starting centroids.
func initialCentroids(seed uint64, k, d int) []float32 {
	cents := make([]float32, k*d)
	for c := 0; c < k; c++ {
		for j := 0; j < d; j++ {
			cents[c*d+j] = kmeansCoord(seed, int64(c)*7919, j, k)
		}
	}
	return cents
}

// KMeans runs Lloyd iterations through the plan layer as one pipeline
// (see runFit) in the "assign" placement group: the CPU body assigns
// engine partitions through the iterator model, the GPU body launches
// the fused assign-reduce kernel over SoA GDST blocks. Forced modes
// reproduce the former eager KMeansCPU/KMeansGPU drivers exactly; Auto
// lets the cost model pick.
func KMeans(g *core.GFlink, p KMeansParams, opts plan.Options) Result {
	p.defaults()
	cents, res := runFit(g, fit{
		name: "kmeans", source: "points", loop: "lloyd", step: "assign",
		iterations: p.Iterations, par: p.Parallelism,
		// Only the D coordinate columns are read; projection keeps the
		// MetaCols tail on the host.
		records: p.Points, recBytes: p.pointBytes(), readBytes: 4 * p.D,
		model:   initialCentroids(p.Seed, p.K, p.D),
		partial: p.K * (p.D + 1),
		perRec:  kernels.KMeansWork(p.K, p.D),
		cpu: func(recs [][]float32, cents []float32) []float32 {
			return kernels.CPUKMeansAssign(recs, cents, p.K, p.D)
		},
		kernel: core.GPUMapSpec{
			Name:   "kmeansAssign",
			Kernel: kernels.KMeansAssignKernel,
			OutSchema: gstruct.MustNew(fmt.Sprintf("KPartial%dx%d", p.K, p.D), 4,
				gstruct.Field{Name: "sums", Kind: gstruct.Float32, Len: p.K * (p.D + 1)}),
			OutLayout:    gstruct.AoS,
			CacheInput:   p.UseCache,
			Args:         []int64{int64(p.K), int64(p.D)},
			KernelPerRec: kernels.KMeansWork(p.K, p.D),
		},
		cpuData: func(j *flink.Job) *flink.Dataset[[]float32] {
			return flink.Generate(j, "points", p.Points, p.pointBytes(), p.Parallelism, func(part int, ord int64) []float32 {
				pt := make([]float32, p.D)
				for jj := 0; jj < p.D; jj++ {
					pt[jj] = kmeansCoord(p.Seed, ord, jj, p.K)
				}
				return pt
			})
		},
		gpuData: func(j *flink.Job) core.GDST {
			// MetaCols > 0 widens the schema with trailing metadata columns
			// the assign kernel never reads.
			return core.NewGDST(g, j, kernels.PointSchema(p.D+p.MetaCols), gstruct.SoA, p.Points, p.Parallelism, func(part int, v gstruct.View, i int, ord int64) {
				for jj := 0; jj < p.D; jj++ {
					v.PutFloat32At(i, jj, 0, kmeansCoord(p.Seed, ord, jj, p.K))
				}
				for jj := p.D; jj < p.D+p.MetaCols; jj++ {
					v.PutFloat32At(i, jj, 0, unit(p.Seed+777, uint64(ord)*53+uint64(jj)))
				}
			})
		},
		update: func(sums, cents []float32) []float32 {
			return kernels.UpdateCentroids(sums, cents, p.K, p.D)
		},
		stageIn: func(it int, j *flink.Job) {
			if it == 0 && p.FromHDFS {
				// Fig 7a: the first iteration reads the points from HDFS.
				stageRead(g, j, "kmeans-input", p.Points*int64(p.pointBytes()), p.Parallelism)
			}
		},
		sink: func(it int, j *flink.Job) {
			if it == p.Iterations-1 && p.WriteResult {
				// HiBench KMeans writes the per-point cluster assignments.
				writeResult(g, "kmeans-output", p.Points*8)
			}
		},
	}, opts)
	res.Checksum = checksum(cents, 0)
	return res
}

// KMeansCPU runs the baseline-Flink KMeans. Call inside the cluster's
// virtual clock.
func KMeansCPU(g *core.GFlink, p KMeansParams) Result {
	return KMeans(g, p, plan.Options{Mode: plan.ForceCPU})
}

// KMeansGPU runs the GFlink KMeans: points live in SoA GDST blocks,
// each iteration broadcasts the centroids and launches the fused
// assign-reduce kernel per block.
func KMeansGPU(g *core.GFlink, p KMeansParams) Result {
	return KMeans(g, p, plan.Options{Mode: plan.ForceGPU})
}

// putRawF32 writes a little-endian float32 at index i of buf.
func putRawF32(buf []byte, i int, v float32) {
	binary.LittleEndian.PutUint32(buf[i*4:], math.Float32bits(v))
}

// rawF32 reads a little-endian float32 at index i of buf.
func rawF32(buf []byte, i int) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
}
