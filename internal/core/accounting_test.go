package core

import (
	"testing"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/flink"
	"gflink/internal/membuf"
)

// submitChunked builds and submits one double-kernel GWork with an
// explicit chunk-count override (0 = cost-model / monolithic default).
func submitChunked(g *GFlink, n int, nominal int64, chunks int) (*GWork, *membuf.HBuffer, *membuf.HBuffer) {
	pool := g.Cluster.TaskManagers[0].Pool
	in := pool.MustAllocate(4 * n)
	out := pool.MustAllocate(4 * n)
	w := &GWork{
		ExecuteName: "core_test.double",
		Size:        n,
		Nominal:     nominal,
		BlockSize:   256,
		GridSize:    (n + 255) / 256,
		In:          []Input{{Buf: in, Nominal: 4 * nominal}},
		Out:         out,
		OutNominal:  4 * nominal,
		Chunks:      chunks,
		JobID:       1,
	}
	g.Manager(0).Streams.Submit(w)
	return w, in, out
}

// TestWorkReportAccounting pins the stage-attribution invariant: for
// every executed GWork — monolithic or chunked — QueueWait + H2D +
// Kernel + D2H equals the submit-to-completion interval exactly, and
// the emitted span tree tiles the same interval (queue span from submit
// to pipeline start, gwork span of exactly Pipeline() length).
func TestWorkReportAccounting(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chunks int
	}{
		{"monolithic", 1},
		{"chunked", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New(Config{
				Config:         flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
				GPUsPerWorker:  1,
				EnableChunking: true,
			})
			type run struct {
				wall  time.Duration
				queue time.Duration
				pipe  time.Duration
				chnk  int
			}
			var runs []run
			g.Run(func() {
				clock := g.Cluster.Clock
				for i := 0; i < 3; i++ {
					t0 := clock.Now()
					w, in, out := submitChunked(g, 256, 1<<20, tc.chunks)
					if err := w.Wait(); err != nil {
						t.Fatal(err)
					}
					wall := clock.Now() - t0
					rep := w.Report()
					runs = append(runs, run{wall: wall, queue: rep.QueueWait, pipe: rep.Pipeline(), chnk: rep.Chunks})
					in.Free()
					out.Free()
				}
			})
			for i, r := range runs {
				if got := r.queue + r.pipe; got != r.wall {
					t.Errorf("work %d: QueueWait+H2D+Kernel+D2H = %v, wall = %v (diff %v)", i, got, r.wall, r.wall-got)
				}
				if tc.chunks > 1 && r.chnk != tc.chunks {
					t.Errorf("work %d: Chunks = %d, want %d", i, r.chnk, tc.chunks)
				}
			}
			// The span tree must tile the same intervals: each queue span
			// ends where its gwork span starts, and the gwork span is
			// exactly Pipeline() long.
			var qEnds, gStarts []time.Duration
			var gi int
			for _, s := range g.Obs.Tracer().Spans() {
				switch s.Cat {
				case "queue":
					qEnds = append(qEnds, s.End)
				case "gwork":
					gStarts = append(gStarts, s.Start)
					if gi < len(runs) && s.Dur() != runs[gi].pipe {
						t.Errorf("gwork span %d: Dur = %v, want Pipeline() = %v", gi, s.Dur(), runs[gi].pipe)
					}
					gi++
				}
			}
			if len(qEnds) != len(runs) || len(gStarts) != len(runs) {
				t.Fatalf("got %d queue / %d gwork spans, want %d each", len(qEnds), len(gStarts), len(runs))
			}
			for i := range qEnds {
				if qEnds[i] != gStarts[i] {
					t.Errorf("queue span %d ends at %v but gwork starts at %v", i, qEnds[i], gStarts[i])
				}
			}
		})
	}
}

// TestChunkedTransferCounters pins the per-device transfer counters on
// the chunked path: splitting a GWork into chunks moves the same
// nominal bytes, so xfer.{h2d,d2h}.bytes.gpu0 must total exactly what
// the monolithic run of the same work counts.
func TestChunkedTransferCounters(t *testing.T) {
	counts := func(chunks int) [2]int64 {
		g := New(Config{
			Config:         flink.Config{Workers: 1, Model: costmodel.Default(), ScaleDivisor: 1},
			GPUsPerWorker:  1,
			EnableChunking: true,
		})
		g.Run(func() {
			w, in, out := submitChunked(g, 256, 1<<20, chunks)
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			if got := w.Report().Chunks; chunks > 1 && got != chunks {
				t.Errorf("Chunks = %d, want %d", got, chunks)
			}
			in.Free()
			out.Free()
		})
		m := g.Obs.Metrics()
		return [2]int64{m.Get("xfer.h2d.bytes.gpu0"), m.Get("xfer.d2h.bytes.gpu0")}
	}
	mono, chunked := counts(1), counts(4)
	if want := [2]int64{4 << 20, 4 << 20}; mono != want {
		t.Errorf("monolithic h2d/d2h bytes = %v, want %v", mono, want)
	}
	if chunked != mono {
		t.Errorf("chunked h2d/d2h bytes = %v, want the monolithic %v", chunked, mono)
	}
}
