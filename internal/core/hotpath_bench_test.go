package core

import (
	"encoding/binary"
	"math"
	"testing"

	"gflink/internal/costmodel"
	"gflink/internal/gpu"
	"gflink/internal/membuf"
	"gflink/internal/obs"
	"gflink/internal/vclock"
)

// BenchmarkHotPath1MGWorks drives GWorks through the full
// submit/exec/complete hot path — one benchmark op is one GWork — on a
// tracing-off deployment (counters stay on, as in every real
// deployment). Run with -benchmem: allocs/op is the per-GWork
// allocation count the hotalloc analyzer locks in (0 at steady state
// since command shells, futures and counter handles pooled), and
// `-benchtime=1000000x` reproduces the scaled-up 1M-GWork sweep; the
// 100k-GWork scenario whose allocs and vclock handoffs per GWork
// hotalloc-bench gates in CI is the same loop at `-benchtime=100000x`.
// Host ns per GWork is tracked by perfbench's core.gwork_ns.
func BenchmarkHotPath1MGWorks(b *testing.B) {
	clock := vclock.New()
	model := costmodel.Default()
	wrapper := NewCUDAWrapper(clock, model)
	dev := gpu.NewDevice(clock, 0, 0, costmodel.C2050, model.PCIe)
	mem := NewMemoryManager(dev, wrapper, costmodel.C2050.MemBytes*6/10, WithPolicy(EvictFIFO))
	mgr := NewStreamManager(StreamConfig{
		Clock:    clock,
		Wrapper:  wrapper,
		Memories: []*GMemoryManager{mem},
		Metrics:  obs.NewRegistry(),
	})
	pool := membuf.NewPool(clock, model, membuf.Config{})
	const n = 64
	var kerr error
	b.ReportAllocs()
	b.ResetTimer()
	clock.Run(func() {
		in := pool.MustAllocate(4 * n)
		out := pool.MustAllocate(4 * n)
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(in.Bytes()[i*4:], math.Float32bits(float32(i)))
		}
		wp := mgr.Pool()
		for i := 0; i < b.N && kerr == nil; i++ {
			w := wp.Get()
			w.ExecuteName = "core_test.double"
			w.Size = n
			w.Nominal = n
			w.BlockSize = 256
			w.GridSize = 1
			w.In = append(w.In, Input{Buf: in, Nominal: 4 * n})
			w.Out = out
			w.OutNominal = 4 * n
			mgr.Submit(w)
			kerr = w.Wait()
			wp.Put(w)
		}
		in.Free()
		out.Free()
		mgr.Close()
		dev.Close()
	})
	if kerr != nil {
		b.Fatal(kerr)
	}
}
