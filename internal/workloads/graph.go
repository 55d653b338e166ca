package workloads

import (
	"encoding/binary"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/gstruct"
	"gflink/internal/kernels"
	"gflink/internal/membuf"
	"gflink/internal/plan"
)

// PageRankParams configures the PageRank benchmark (Fig 5b). Each
// superstep computes per-partition rank contributions (GPU-offloadable)
// and aggregates them across the cluster (a network shuffle that stays
// on the engine and bounds the end-to-end speedup, as the paper's
// Observation 1 predicts for shuffle-heavy jobs).
type PageRankParams struct {
	// Pages is the nominal node count (5-25 million in the paper).
	Pages int64
	// EdgesPerPage is the average out-degree.
	EdgesPerPage int
	// Damping is the PageRank damping factor.
	Damping float32
	// Iterations is the superstep count.
	Iterations  int
	Parallelism int
	UseCache    bool
	Seed        uint64
}

func (p *PageRankParams) defaults() {
	if p.EdgesPerPage == 0 {
		p.EdgesPerPage = 8
	}
	if p.Damping == 0 {
		p.Damping = 0.85
	}
	if p.Iterations == 0 {
		p.Iterations = 10
	}
}

// ConnCompParams configures the ComponentConnect benchmark (Fig 6c):
// iterative label propagation over the same synthetic graphs as
// PageRank.
type ConnCompParams struct {
	// Pages is the nominal node count (5-25 million).
	Pages int64
	// EdgesPerPage is the average out-degree.
	EdgesPerPage int
	// Iterations is the fixed superstep count (HiBench runs a bounded
	// number rather than to convergence).
	Iterations  int
	Parallelism int
	UseCache    bool
	Seed        uint64
}

func (p *ConnCompParams) defaults() {
	if p.EdgesPerPage == 0 {
		p.EdgesPerPage = 8
	}
	if p.Iterations == 0 {
		p.Iterations = 10
	}
}

// PageRank runs PageRank supersteps through the plan layer as one
// pipeline (see runGraph). Forced modes reproduce the former eager
// PageRankCPU/PageRankGPU drivers exactly; Auto lets the cost model
// pick.
func PageRank(g *core.GFlink, p PageRankParams, opts plan.Options) Result {
	p.defaults()
	ranks, res := runGraph(g, graphParams{p.Pages, p.EdgesPerPage, p.Iterations, p.Parallelism, p.UseCache, p.Seed}, superstep[float32]{
		name:   "pagerank",
		stage:  "contrib",
		kernel: kernels.PageRankContribKernel,
		// The join probe, tuple construction and combiner emission Flink's
		// join-based PageRank performs per edge on the JVM.
		edgeWork: costmodel.Work{Flops: 1450, BytesRead: 600},
		gpuWork:  kernels.PageRankWork,
		outdeg:   true,
		init:     func(_, n int) float32 { return 1 / float32(n) },
		encode:   putRawF32,
		decode:   rawF32,
		cpu: func(gs *graphSetup, edges [][2]int32, ranks []float32) []float32 {
			return kernels.CPUPageRankContrib(edges, ranks, gs.outdeg, gs.nReal)
		},
		merge: func(pairs *flink.Dataset[nodeVal], ranks []float32) []float32 {
			sum := make([]float32, len(ranks))
			shuffleMerge(pairs, "aggContrib", 4, func(a, b float32) float32 { return a + b },
				func(node int32, v float32) { sum[node] += v })
			return kernels.ApplyDamping(sum, p.Damping, len(ranks))
		},
	}, opts)
	res.Checksum = checksum(ranks, 89)
	return res
}

// PageRankCPU runs the baseline PageRank.
func PageRankCPU(g *core.GFlink, p PageRankParams) Result {
	return PageRank(g, p, plan.Options{Mode: plan.ForceCPU})
}

// PageRankGPU runs the GFlink PageRank: cached edge blocks, per-block
// contribution kernel, engine-side aggregation.
func PageRankGPU(g *core.GFlink, p PageRankParams) Result {
	return PageRank(g, p, plan.Options{Mode: plan.ForceGPU})
}

// ConnComp runs label-propagation supersteps through the plan layer as
// one pipeline (see runGraph). Forced modes reproduce the former eager
// ConnCompCPU/ConnCompGPU drivers exactly; Auto lets the cost model
// pick.
func ConnComp(g *core.GFlink, p ConnCompParams, opts plan.Options) Result {
	p.defaults()
	labels, res := runGraph(g, graphParams{p.Pages, p.EdgesPerPage, p.Iterations, p.Parallelism, p.UseCache, p.Seed}, superstep[uint32]{
		name:   "concomp",
		stage:  "propagate",
		kernel: kernels.ConnCompKernel,
		// The join probe and tuple handling of Flink's delta-iteration
		// ConnectedComponents per edge.
		edgeWork: costmodel.Work{Flops: 850, BytesRead: 550},
		gpuWork:  kernels.ConnCompWork,
		improved: true,
		init:     func(i, _ int) uint32 { return uint32(i) },
		encode:   putRawU32,
		decode:   rawU32,
		cpu: func(_ *graphSetup, edges [][2]int32, labels []uint32) []uint32 {
			next, _ := kernels.CPUConnCompProp(edges, labels)
			return next
		},
		// Absent nodes keep their label.
		merge: func(pairs *flink.Dataset[nodeVal], labels []uint32) []uint32 {
			next := append([]uint32(nil), labels...)
			shuffleMerge(pairs, "aggLabels", 2, func(a, b float32) float32 { return min(a, b) },
				func(node int32, v float32) { next[node] = min(next[node], uint32(v)) })
			return next
		},
	}, opts)
	res.Checksum = checksum(labels, 83)
	return res
}

// ConnCompCPU runs the baseline label propagation.
func ConnCompCPU(g *core.GFlink, p ConnCompParams) Result {
	return ConnComp(g, p, plan.Options{Mode: plan.ForceCPU})
}

// ConnCompGPU runs the GFlink label propagation with cached edge
// blocks.
func ConnCompGPU(g *core.GFlink, p ConnCompParams) Result {
	return ConnComp(g, p, plan.Options{Mode: plan.ForceGPU})
}

// graphParams is what the two graph workloads' parameters share.
type graphParams struct {
	pages                     int64
	edgesPer, iterations, par int
	cache                     bool
	seed                      uint64
}

// superstep is what distinguishes the two graph workloads; runGraph
// runs everything else. V is the node-vector element: a rank
// (PageRank) or a component label (ConnComp).
type superstep[V float32 | uint32] struct {
	// name prefixes the plan (and so the job) name.
	name string
	// stage is the per-edge task name ("gpu:"-prefixed on the GPU).
	stage  string
	kernel string
	// edgeWork is the per-edge demand on the CPU path; gpuWork the
	// kernel's, used only for the placement estimate.
	edgeWork, gpuWork costmodel.Work
	// outdeg feeds the kernel the static out-degree array as In[2].
	outdeg bool
	// init is node i's initial value among n real nodes.
	init func(i, n int) V
	// encode and decode move one element in and out of an off-heap
	// node vector.
	encode func(buf []byte, i int, v V)
	decode func(buf []byte, i int) V
	// cpu is the reference step over one partition's edges; it returns
	// the dense per-partition output the kernel also writes.
	cpu func(gs *graphSetup, edges [][2]int32, cur []V) []V
	// improved ships only the nodes whose value the step changed
	// (ConnComp's labels); otherwise every touched node travels.
	improved bool
	// merge aggregates the shuffled records into the next vector.
	merge func(pairs *flink.Dataset[nodeVal], cur []V) []V
}

// runGraph runs a graph workload as one plan pipeline. The edge source,
// each superstep's per-edge stage and the cleanup are Either nodes in
// the "superstep" placement group. The CPU body keeps each partition's
// real edges as one engine record and steps them through the iterator
// model; the GPU body encodes them as one cacheable AoS edge block and
// runs the kernel as one GWork per block. Both sides of a superstep
// stay on the engine: the join shuffle that redistributes the node
// vector before the stage, and the aggregation shuffle after it.
func runGraph[V float32 | uint32](g *core.GFlink, gp graphParams, s superstep[V], opts plan.Options) ([]V, Result) {
	c := g.Cluster
	start := c.Clock.Now()
	res := Result{}
	par := gp.par
	if par <= 0 {
		par = c.Parallelism()
	}
	gs := buildGraph(gp.seed, gp.pages, gp.edgesPer, par, g.Cfg.Config.ScaleDivisor)
	vec := make([]V, gs.nReal)
	for i := range vec {
		vec[i] = s.init(i, gs.nReal)
	}
	workers := g.Cfg.Config.Workers

	// Branch-local state: the CPU placement carries the edges as an
	// engine dataset, the GPU placement as device blocks plus the staged
	// out-degree array.
	var edges *flink.Dataset[[][2]int32]
	var blocks core.GDST
	var degBuf *membuf.HBuffer
	var degPerWorker []*membuf.HBuffer

	gr := plan.NewGraph(g, s.name+"-"+opts.Mode.String(), opts)
	gr.PlaceGroup("superstep", s.stageCost(g, gp, par))
	plan.EitherDo(gr, "edges", "superstep",
		func(ctx *plan.Ctx) {
			edges = flink.FromPartitions(ctx.Job, 8, edgePartitions(gs, workers, func(_, _ int, es [][2]int32) [][2]int32 { return es }))
		},
		func(ctx *plan.Ctx) {
			blocks = flink.FromPartitions(ctx.Job, 8, edgePartitions(gs, workers, func(pi, worker int, es [][2]int32) *core.Block {
				buf := c.TaskManagers[worker].Pool.MustAllocate(8 * len(es))
				for i, e := range es {
					putRawU32(buf.Bytes(), i*2, uint32(e[0]))
					putRawU32(buf.Bytes(), i*2+1, uint32(e[1]))
				}
				return &core.Block{
					Schema: kernels.EdgeSchema, Layout: gstruct.AoS,
					Buf: buf, N: len(es), Nominal: gs.nomParts[pi],
					Partition: pi, Index: 0,
				}
			}))
			if s.outdeg {
				// The out-degree array is static: stage it per worker once
				// and let the devices cache it.
				degBuf = c.TaskManagers[0].Pool.MustAllocate(4 * gs.nReal)
				for i, d := range gs.outdeg {
					putRawU32(degBuf.Bytes(), i, uint32(d))
				}
				degPerWorker = core.StageBuffer(g, degBuf)
			}
		})
	iters := plan.Iterate(gr, s.name, gp.iterations, func(it int, sub *plan.Graph) {
		var pairs *flink.Dataset[nodeVal]
		plan.Do(sub, "shuffle", func(ctx *plan.Ctx) {
			// Redistribute the vector to the edge partitions (the join
			// shuffle of Flink's graph iterations; ~2 copies of the vector
			// cross the wire).
			ctx.Job.ShuffleBytes(gp.pages * 4 * 2)
		})
		plan.EitherDo(sub, s.stage, "superstep",
			func(ctx *plan.Ctx) {
				j := ctx.Job
				cur := vec
				tm0 := c.Clock.Now()
				pairs = flink.ProcessPartitions(edges, s.stage, nodeValBytes, func(pi, worker int, in flink.Partition[[][2]int32]) ([]nodeVal, int64) {
					j.ChargeCompute(in.Nominal, s.edgeWork)
					return s.pairs(s.cpu(&gs, in.Items[0], cur), cur, gp.pages, in.Nominal)
				})
				res.MapPhase = c.Clock.Now() - tm0
			},
			func(ctx *plan.Ctx) {
				j := ctx.Job
				// Stage off-heap copies of the vector; the PCIe hop to the
				// devices is charged on the GWork inputs below.
				vecBuf := c.TaskManagers[0].Pool.MustAllocate(4 * gs.nReal)
				for i, v := range vec {
					s.encode(vecBuf.Bytes(), i, v)
				}
				perWorker := core.StageBuffer(g, vecBuf)
				iterKey := core.CacheKey{JobID: j.ID, Partition: -2, Block: it}
				cur := vec
				tm0 := c.Clock.Now()
				pairs = flink.ProcessPartitions(blocks, "gpu:"+s.stage, nodeValBytes, func(pi, worker int, in flink.Partition[*core.Block]) ([]nodeVal, int64) {
					blk := in.Items[0]
					outBuf := c.TaskManagers[worker].Pool.MustAllocate(4 * gs.nReal)
					inputs := []core.Input{
						{Buf: blk.Buf, Nominal: blk.Nominal * 8, Cache: gp.cache, Key: blk.Key(j.ID)},
						// The fresh vector crosses PCIe once per GPU per
						// superstep (later works on the same device hit the
						// cache).
						{Buf: perWorker[worker%workers], Nominal: gp.pages * 4, Cache: gp.cache, Key: iterKey},
					}
					if s.outdeg {
						inputs = append(inputs, core.Input{Buf: degPerWorker[worker%workers], Nominal: gp.pages * 4, Cache: gp.cache, Key: core.CacheKey{JobID: j.ID, Partition: -1, Block: 0}})
					}
					w := &core.GWork{
						ExecuteName: s.kernel,
						Size:        blk.N,
						Nominal:     blk.Nominal,
						BlockSize:   256,
						GridSize:    (blk.N + 255) / 256,
						In:          inputs,
						Out:         outBuf,
						// The kernel's output is compacted: at most one
						// element per edge, never more than the node count.
						OutNominal: min(blk.Nominal, gp.pages) * 4,
						Args:       []int64{int64(gs.nReal)},
						JobID:      j.ID,
					}
					g.Manager(worker).Streams.Submit(w)
					if err := w.Wait(); err != nil {
						panic(err)
					}
					dense := make([]V, gs.nReal)
					for i := range dense {
						dense[i] = s.decode(outBuf.Bytes(), i)
					}
					outBuf.Free()
					return s.pairs(dense, cur, gp.pages, in.Nominal)
				})
				res.MapPhase = c.Clock.Now() - tm0
				for _, b := range perWorker {
					b.Free()
				}
				vecBuf.Free()
			})
		plan.Do(sub, "merge", func(ctx *plan.Ctx) {
			vec = s.merge(pairs, vec)
		})
	})
	plan.EitherDo(gr, "cleanup", "superstep",
		func(ctx *plan.Ctx) {},
		func(ctx *plan.Ctx) {
			for _, b := range degPerWorker {
				b.Free()
			}
			if degBuf != nil {
				degBuf.Free()
			}
			g.ReleaseJobCaches(ctx.Job.ID)
			core.FreeBlocks(blocks)
		})
	gr.Execute()

	res.Iterations = iters.Durations
	res.Total = c.Clock.Now() - start
	return vec, res
}

// pairs emits one partition's dense output as shuffle records.
func (s superstep[V]) pairs(dense, cur []V, nominalNodes, edgesNominal int64) ([]nodeVal, int64) {
	if s.improved {
		return changedPairs(dense, cur, nominalNodes, edgesNominal)
	}
	return changedPairs(dense, nil, nominalNodes, edgesNominal)
}

// stageCost estimates the per-edge stage for auto placement: the edges
// (and PageRank's out-degree array) cross PCIe once and then stay
// cached when cache holds, the vector is streamed to every device each
// superstep, and each partition's launch returns at most one element
// per node.
func (s superstep[V]) stageCost(g *core.GFlink, gp graphParams, par int) costmodel.StageCost {
	cpuLanes, gpuLanes := planLanes(g, par)
	edges := gp.pages * int64(gp.edgesPer)
	h2d := edges * 8
	if s.outdeg {
		h2d += gp.pages * 4
	}
	return costmodel.StageCost{
		Records:        edges,
		CPUPerRec:      s.edgeWork,
		GPUWork:        s.gpuWork.Scale(float64(edges)),
		HostToDevice:   h2d,
		H2DStreamed:    gp.pages * 4 * int64(gpuLanes),
		DeviceToHost:   min(edges/int64(par), gp.pages) * 4 * int64(par),
		Launches:       int64(par),
		Executions:     int64(gp.iterations),
		CacheResident:  gp.cache,
		CPUParallelism: cpuLanes,
		GPUParallelism: gpuLanes,
	}
}

// prEdge generates the e-th real edge of partition part. Destinations
// follow a product-skew (power-law-like) distribution, as web graphs
// do, which is what makes map-side combining effective.
func prEdge(seed uint64, part int, ord int64, nReal int) [2]int32 {
	h := mix(seed+uint64(part)*1_000_003, uint64(ord))
	un := uint64(nReal)
	src := int32(h % un)
	dst := int32(((h >> 24) % un) * ((h >> 44) % un) / un)
	return [2]int32{src, dst}
}

// graphSetup is the generated graph both placements share: each
// partition's real edges and the global out-degrees.
type graphSetup struct {
	nReal    int
	edges    [][][2]int32 // per partition
	outdeg   []int32
	nomParts []int64 // nominal edges per partition
}

func buildGraph(seed uint64, nodes int64, edgesPer int, par int, div int64) graphSetup {
	nReal := int(nodes / div)
	if nReal < 2 {
		nReal = 2
	}
	m := nodes * int64(edgesPer)
	per := m / int64(par)
	gs := graphSetup{nReal: nReal, outdeg: make([]int32, nReal)}
	for p := 0; p < par; p++ {
		nom := per
		if p == par-1 {
			nom = m - per*int64(par-1)
		}
		real := nom / div
		if real == 0 && nom > 0 {
			real = 1
		}
		es := make([][2]int32, real)
		for i := int64(0); i < real; i++ {
			es[i] = prEdge(seed, p, i*div, nReal)
			gs.outdeg[es[i][0]]++
		}
		gs.edges = append(gs.edges, es)
		gs.nomParts = append(gs.nomParts, nom)
	}
	return gs
}

// edgePartitions lays the partitions round-robin over the workers, each
// holding one record that rec builds from its real edges.
func edgePartitions[T any](gs graphSetup, workers int, rec func(pi, worker int, es [][2]int32) T) []flink.Partition[T] {
	parts := make([]flink.Partition[T], len(gs.edges))
	for pi := range parts {
		worker := pi % workers
		parts[pi] = flink.Partition[T]{Worker: worker, Items: []T{rec(pi, worker, gs.edges[pi])}, Nominal: gs.nomParts[pi]}
	}
	return parts
}

// nodeVal is one (node, value) shuffle record of the graph workloads:
// a map-side-combined contribution (PageRank) or candidate label
// (ConnectedComponents). 12 bytes on the wire.
type nodeVal struct {
	Node int32
	Val  float32
}

const nodeValBytes = 12

// pairNominal estimates the paper-scale count of map-side-combined
// pairs a partition ships: the observed touched fraction, capped by the
// analytic expectation for a skewed graph (at aggressive scale-down
// every real node is touched, which would wildly overestimate the
// shuffle). The 0.4 factor reflects the combining a power-law
// destination distribution enables.
func pairNominal(touched, realNodes int, nominalNodes, edgesNominal int64) int64 {
	if realNodes == 0 {
		return 0
	}
	byRatio := nominalNodes * int64(touched) / int64(realNodes)
	cap := int64(0.4 * float64(min(edgesNominal, nominalNodes)))
	return min(byRatio, cap)
}

// changedPairs turns one partition's dense output into the shuffle
// records that carry it: only nodes whose value differs from base
// travel, so base nil ships every touched node (PageRank's map-side
// combined contributions) and base = the current labels ships only
// improved labels (ConnComp).
func changedPairs[V float32 | uint32](dense, base []V, nominalNodes, edgesNominal int64) ([]nodeVal, int64) {
	var pairs []nodeVal
	for i, v := range dense {
		if (base == nil && v != 0) || (base != nil && v != base[i]) {
			pairs = append(pairs, nodeVal{Node: int32(i), Val: float32(v)})
		}
	}
	return pairs, pairNominal(len(pairs), len(dense), nominalNodes, edgesNominal)
}

// shuffleMerge runs the combinable hash shuffle that aggregates the
// pairs cluster-wide (the part of every superstep that stays on the
// engine in both placements) and hands each reduced pair to fold. The
// driver-side materialization itself is bookkeeping — in Flink the
// reduced values stay on the workers and join the next superstep — so
// only the shuffle is charged.
func shuffleMerge(pairs *flink.Dataset[nodeVal], name string, flops float64, combine func(a, b float32) float32, fold func(node int32, v float32)) {
	reduced := flink.ReduceByKey(pairs, name, costmodel.Work{Flops: flops},
		func(p nodeVal) int32 { return p.Node },
		func(a, b nodeVal) nodeVal { return nodeVal{Node: a.Node, Val: combine(a.Val, b.Val)} })
	for pi := 0; pi < reduced.Partitions(); pi++ {
		for _, p := range reduced.Partition(pi).Items {
			fold(p.Node, p.Val)
		}
	}
}

// putRawU32 writes a little-endian uint32 at index i of buf.
func putRawU32(buf []byte, i int, v uint32) {
	binary.LittleEndian.PutUint32(buf[i*4:], v)
}
