package membuf

import (
	"testing"
	"testing/quick"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

func newPool(cfg Config) (*vclock.Clock, *Pool) {
	c := vclock.New()
	return c, NewPool(c, costmodel.Default(), cfg)
}

func TestAllocateRoundsToPages(t *testing.T) {
	c, p := newPool(Config{PageSize: 1024})
	c.Run(func() {
		b := p.MustAllocate(1)
		if b.Pages() != 1 || len(b.Raw()) != 1024 || len(b.Bytes()) != 1 {
			t.Errorf("1-byte alloc: pages=%d raw=%d bytes=%d", b.Pages(), len(b.Raw()), len(b.Bytes()))
		}
		b2 := p.MustAllocate(1025)
		if b2.Pages() != 2 {
			t.Errorf("1025-byte alloc used %d pages, want 2", b2.Pages())
		}
		b.Free()
		b2.Free()
	})
	s := p.Stats()
	if s.InUsePages != 0 || s.Allocs != 2 || s.Frees != 2 || s.PeakPages != 3 {
		t.Errorf("stats = %+v", s)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c, p := newPool(Config{PageSize: 1024, CapacityPages: 2})
	c.Run(func() {
		b := p.MustAllocate(2048)
		if _, err := p.Allocate(1); err == nil {
			t.Error("allocation beyond capacity succeeded")
		}
		b.Free()
		if _, err := p.Allocate(1); err != nil {
			t.Errorf("allocation after free failed: %v", err)
		}
	})
}

func TestInvalidAllocate(t *testing.T) {
	c, p := newPool(Config{})
	c.Run(func() {
		if _, err := p.Allocate(0); err == nil {
			t.Error("zero-byte allocation succeeded")
		}
		if _, err := p.Allocate(-5); err == nil {
			t.Error("negative allocation succeeded")
		}
	})
}

func TestPinChargesTimeAndTracksPages(t *testing.T) {
	c, p := newPool(Config{PageSize: 1024})
	m := costmodel.Default()
	end := c.Run(func() {
		b := p.MustAllocate(3 * 1024)
		b.Pin()
		if !b.Pinned() {
			t.Error("not pinned after Pin")
		}
		if got := p.Stats().PinnedPages; got != 3 {
			t.Errorf("pinned pages = %d, want 3", got)
		}
		b.Pin() // idempotent, no extra charge
		b.Unpin()
		if b.Pinned() || p.Stats().PinnedPages != 0 {
			t.Error("unpin did not release")
		}
		b.Free()
	})
	if want := 3 * m.Overheads.PinPage; end != want {
		t.Errorf("pin cost %v, want %v", end, want)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double free did not panic")
		}
	}()
	c, p := newPool(Config{})
	c.Run(func() {
		b := p.MustAllocate(10)
		b.Free()
		b.Free()
	})
}

func TestFreeUnpins(t *testing.T) {
	c, p := newPool(Config{PageSize: 512})
	c.Run(func() {
		b := p.MustAllocate(512)
		b.Pin()
		b.Free()
	})
	if p.Stats().PinnedPages != 0 {
		t.Error("Free left pages pinned")
	}
}

func TestElemsPerPage(t *testing.T) {
	if got := ElemsPerPage(32768, 24); got != 1365 {
		t.Errorf("ElemsPerPage(32768,24) = %d, want 1365", got)
	}
	if ElemsPerPage(100, 0) != 0 || ElemsPerPage(100, -1) != 0 {
		t.Error("non-positive stride must give 0")
	}
	if ElemsPerPage(10, 24) != 0 {
		t.Error("oversized stride must give 0")
	}
}

// Property: pool accounting matches a model without recycling. Each
// op either allocates or frees a live buffer; after every op InUse,
// Peak, Allocs and Frees equal the model's, and after freeing
// everything in-use is zero.
func TestPoolAccountingProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		c, p := newPool(Config{PageSize: 256})
		ok := true
		c.Run(func() {
			var live []*HBuffer
			var want Stats
			for _, op := range ops {
				if op&1 == 1 && len(live) > 0 {
					i := int(op>>1) % len(live)
					want.InUsePages -= live[i].Pages()
					want.Frees++
					live[i].Free()
					live = append(live[:i], live[i+1:]...)
				} else {
					b := p.MustAllocate(int(op>>1)%4096 + 1)
					live = append(live, b)
					want.InUsePages += b.Pages()
					want.PeakPages = max(want.PeakPages, want.InUsePages)
					want.Allocs++
				}
				st := p.Stats()
				if st.InUsePages != want.InUsePages || st.PeakPages != want.PeakPages ||
					st.Allocs != want.Allocs || st.Frees != want.Frees {
					ok = false
				}
			}
			for _, b := range live {
				b.Free()
			}
			if p.Stats().InUsePages != 0 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// A freed span comes back, zeroed, to the next allocation of the same
// page count while the pool still has live pages; the freed handle
// keeps no view of it.
func TestFreedSpanIsReusedZeroed(t *testing.T) {
	_, p := newPool(Config{PageSize: 1024})
	anchor := p.MustAllocate(1)
	b := p.MustAllocate(2 * 1024)
	span := &b.Raw()[0]
	for i := range b.Raw() {
		b.Raw()[i] = 0xFF
	}
	b.Free()
	if b.Raw() != nil {
		t.Error("freed handle still exposes its span")
	}
	b2 := p.MustAllocate(2*1024 - 7)
	if &b2.Raw()[0] != span {
		t.Error("freed span was not reused for the same page count")
	}
	for i, x := range b2.Raw() {
		if x != 0 {
			t.Fatalf("reused span byte %d = %#x, want 0", i, x)
		}
	}
	b2.Free()
	anchor.Free()
}

// Emptying the pool drops every retained span, so an idle pool holds
// no spare pages.
func TestEmptyPoolDropsSpans(t *testing.T) {
	_, p := newPool(Config{PageSize: 1024})
	b := p.MustAllocate(1024)
	span := &b.Raw()[0]
	b.Free()
	if p.sparePages != 0 || len(p.spare) != 0 {
		t.Errorf("empty pool retains %d spare pages", p.sparePages)
	}
	b2 := p.MustAllocate(1024)
	if &b2.Raw()[0] == span {
		t.Error("allocation after the pool emptied reused a dropped span")
	}
	b2.Free()
}

// With a live anchor, an Allocate+Free cycle reuses its span and
// allocates exactly one object: the HBuffer shell.
func TestRecycledAllocateAllocatesOnlyTheShell(t *testing.T) {
	_, p := newPool(Config{})
	anchor := p.MustAllocate(1)
	defer anchor.Free()
	if got := testing.AllocsPerRun(100, func() {
		p.MustAllocate(4096).Free()
	}); got != 1 {
		t.Errorf("Allocate(4096)+Free = %v allocs, want exactly 1", got)
	}
}

// Buffers are shared across stream workers, so the lifecycle flags must
// be synchronized: this test hammers Pin/Unpin/Pinned/Freed from
// concurrent vclock processes and relies on `go test -race` to catch
// unguarded access to HBuffer.pinned/HBuffer.freed.
func TestConcurrentLifecycleFlagAccess(t *testing.T) {
	c, p := newPool(Config{PageSize: 1024})
	c.Run(func() {
		b := p.MustAllocate(4 * 1024)
		g := vclock.NewGroup(c)
		for i := 0; i < 4; i++ {
			g.Go("worker", func() {
				for j := 0; j < 50; j++ {
					b.Pin()
					_ = b.Pinned()
					_ = b.Freed()
					b.Unpin()
					c.Sleep(1)
				}
			})
		}
		g.Wait()
		b.Free()
		if !b.Freed() || b.Pinned() {
			t.Error("flags inconsistent after free")
		}
	})
	if s := p.Stats(); s.InUsePages != 0 || s.PinnedPages != 0 {
		t.Errorf("pool not drained: %+v", s)
	}
}

// Property: distinct live buffers never share an ID.
func TestBufferIDUniqueness(t *testing.T) {
	c, p := newPool(Config{})
	c.Run(func() {
		seen := map[int64]bool{}
		for i := 0; i < 100; i++ {
			b := p.MustAllocate(8)
			if seen[b.ID()] {
				t.Fatalf("duplicate buffer id %d", b.ID())
			}
			seen[b.ID()] = true
		}
	})
}
