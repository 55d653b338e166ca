package bench

import (
	"encoding/binary"
	"fmt"
	"math"
	"runtime"

	"gflink/internal/core"
	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// allocBudget is the pinned per-GWork heap-allocation ceiling of the
// submit/exec/complete hot path with tracing off. The pre-optimization
// baseline was 85 allocs per GWork; with pooled stream-command shells,
// a reusable launch future and preregistered counter handles the fast
// path measures 0, and the hotalloc analyzer keeps new allocations off
// the annotated path. The ceiling leaves headroom for allocator/runtime
// jitter while still failing long before the old behaviour could
// return.
const allocBudget = 17.0

// handoffBudget is the pinned ceiling on vclock wake-up sends per GWork
// over the same window: the H2D → kernel → D2H pipeline measures exactly
// 12 with co-deadline batching and the self-wake fast path, against 21
// for the pre-batching one-timer-per-dispatch engine. The count is a
// deterministic function of the simulated schedule, so the ceiling has
// no noise margin: any extra handoff per GWork means a dispatch fast
// path was lost.
const handoffBudget = 12.0

func init() {
	// The kernel mirrors core's test double kernel: 1 flop and 8 bytes
	// per element, enough to exercise the full three-stage pipeline.
	gpu.Register("hotalloc.double", func(ctx *gpu.KernelCtx) error {
		in, out := ctx.In[0].Bytes(), ctx.Out[0].Bytes()
		for i := 0; i < ctx.N; i++ {
			v := math.Float32frombits(binary.LittleEndian.Uint32(in[i*4:]))
			binary.LittleEndian.PutUint32(out[i*4:], math.Float32bits(2*v))
		}
		ctx.Charge(costmodel.Work{Flops: float64(ctx.Nominal), BytesRead: 4 * float64(ctx.Nominal), BytesWritten: 4 * float64(ctx.Nominal)})
		return nil
	})

	register(&Experiment{
		ID:    "hotalloc-bench",
		Title: "Allocation budget of the GWork hot path (100k-work sweep, tracing off)",
		Paper: "steady-state GWork execution is allocation-free on the annotated hot path (DESIGN.md invariant 10)",
		Run: func(scale int64) *Table {
			t := &Table{
				ID:     "hotalloc-bench",
				Title:  "Per-GWork heap allocations on the submit/exec/complete path",
				Paper:  "the pooled fast path recycles shells, events, parks and device buffers",
				Header: []string{"gworks", "allocs/gwork", "bytes/gwork"},
			}
			if scale < 1 {
				scale = 1
			}
			works := int(100_000 / scale)
			if works < 1_000 {
				works = 1_000
			}
			const warmup = 256
			const n = 64

			clock := vclock.New()
			model := costmodel.Default()
			wrapper := core.NewCUDAWrapper(clock, model)
			dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
			mem := core.NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10, core.WithPolicy(core.EvictFIFO))
			mgr := core.NewStreamManager(core.StreamConfig{
				Clock:    clock,
				Wrapper:  wrapper,
				Memories: []*core.GMemoryManager{mem},
				Metrics:  obs.NewRegistry(),
			})
			pool := membuf.NewPool(clock, model, membuf.Config{})

			var kerr error
			var before, after runtime.MemStats
			var handoffs0, handoffs1 uint64
			clock.Run(func() {
				in := pool.MustAllocate(4 * n)
				out := pool.MustAllocate(4 * n)
				for i := 0; i < n; i++ {
					binary.LittleEndian.PutUint32(in.Bytes()[i*4:], math.Float32bits(float32(i)))
				}
				wp := mgr.Pool()
				one := func() {
					w := wp.Get()
					w.ExecuteName = "hotalloc.double"
					w.Size = n
					w.Nominal = n
					w.BlockSize = 256
					w.GridSize = 1
					w.In = append(w.In, core.Input{Buf: in, Nominal: 4 * n})
					w.Out = out
					w.OutNominal = 4 * n
					mgr.Submit(w)
					if err := w.Wait(); err != nil && kerr == nil {
						kerr = err
					}
					wp.Put(w)
				}
				// Warm the free lists (pool shells, vclock parks, device
				// buffers) so the measured window is the steady state.
				for i := 0; i < warmup && kerr == nil; i++ {
					one()
				}
				runtime.GC()
				runtime.ReadMemStats(&before)
				handoffs0 = clock.Handoffs()
				for i := 0; i < works && kerr == nil; i++ {
					one()
				}
				handoffs1 = clock.Handoffs()
				runtime.ReadMemStats(&after)
				mgr.Close()
				dev.Close()
			})
			if kerr != nil {
				panic(fmt.Sprintf("bench: hotalloc-bench GWork failed: %v", kerr))
			}

			perWork := float64(after.Mallocs-before.Mallocs) / float64(works)
			bytesPerWork := float64(after.TotalAlloc-before.TotalAlloc) / float64(works)
			handoffsPerWork := float64(handoffs1-handoffs0) / float64(works)
			t.AddRow(fmt.Sprint(works), fmt.Sprintf("%.2f", perWork), fmt.Sprintf("%.0f", bytesPerWork))
			t.Note("allocs/gwork = %.2f (pinned ceiling %.0f; pre-optimization baseline 85)", perWork, allocBudget)
			t.Note("handoffs/gwork = %.2f (pinned ceiling %.2f; pre-batching engine 21)", handoffsPerWork, handoffBudget)
			return t
		},
		Check: func(t *Table) error {
			var perWork, handoffsPerWork float64
			foundA, foundH := false, false
			for _, n := range t.Notes {
				if _, err := fmt.Sscanf(n, "allocs/gwork = %f", &perWork); err == nil {
					foundA = true
				}
				if _, err := fmt.Sscanf(n, "handoffs/gwork = %f", &handoffsPerWork); err == nil {
					foundH = true
				}
			}
			if !foundA || !foundH {
				return fmt.Errorf("hotalloc-bench: missing notes (allocs/gwork %v, handoffs/gwork %v)", foundA, foundH)
			}
			if perWork > allocBudget {
				return fmt.Errorf("hotalloc-bench: %.2f allocs per GWork exceeds the pinned ceiling %.0f — something re-grew the hot path", perWork, allocBudget)
			}
			if handoffsPerWork > handoffBudget {
				return fmt.Errorf("hotalloc-bench: %.2f vclock handoffs per GWork exceeds the pinned ceiling %.2f — a dispatch fast path (co-deadline batching or self-wake) was lost", handoffsPerWork, handoffBudget)
			}
			return nil
		},
	})
}
