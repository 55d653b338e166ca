package membuf

import (
	"testing"
)

// fuzzPageSize keeps fuzzed spans small, so multi-page buffers and
// exact-page-count reuse are both common.
const fuzzPageSize = 16

// poolOp is one decoded fuzz step: kind 0 allocates arg+1 bytes (up to
// six pages); kinds 1-3 free, pin or unpin live buffer arg%len(live).
type poolOp struct{ kind, arg byte }

// decodePoolOps turns fuzz bytes into a pool capacity (first byte, 0 =
// unbounded) and a list of ops, two bytes each.
func decodePoolOps(data []byte) (capacity int, ops []poolOp) {
	if len(data) == 0 {
		return 0, nil
	}
	capacity = int(data[0]) % 24
	for i := 1; i+1 < len(data); i += 2 {
		ops = append(ops, poolOp{kind: data[i] % 4, arg: data[i+1] % (6 * fuzzPageSize)})
	}
	return capacity, ops
}

// FuzzPoolOps drives a pool through arbitrary Allocate/Free/Pin/Unpin
// sequences and checks the recycling contract after every step: each
// allocation is zeroed, live buffers never share memory or clobber
// each other, the counters equal the sums over live buffers, and the
// spare spans stay within PeakPages-InUsePages and vanish once the
// pool is empty. The seed corpus lives in testdata/fuzz/FuzzPoolOps.
func FuzzPoolOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return
		}
		capacity, ops := decodePoolOps(data)
		c, p := newPool(Config{PageSize: fuzzPageSize, CapacityPages: capacity})
		c.Run(func() {
			var live []*HBuffer
			tags := map[*HBuffer]byte{}
			var next byte
			for step, op := range ops {
				switch {
				case op.kind == 0:
					n := int(op.arg) + 1
					pages := (n + fuzzPageSize - 1) / fuzzPageSize
					b, err := p.Allocate(n)
					if err != nil {
						if capacity == 0 || p.Stats().InUsePages+pages <= capacity {
							t.Fatalf("step %d: Allocate(%d) failed within budget: %v", step, n, err)
						}
						continue
					}
					if len(b.Raw()) != pages*fuzzPageSize || len(b.Bytes()) != n {
						t.Fatalf("step %d: Allocate(%d) gave raw %d, bytes %d", step, n, len(b.Raw()), len(b.Bytes()))
					}
					for i, x := range b.Raw() {
						if x != 0 {
							t.Fatalf("step %d: Allocate(%d) byte %d = %#x, want 0", step, n, i, x)
						}
					}
					next = next%255 + 1
					for i := range b.Raw() {
						b.Raw()[i] = next
					}
					tags[b] = next
					live = append(live, b)
				case len(live) == 0:
					continue
				case op.kind == 1:
					i := int(op.arg) % len(live)
					b := live[i]
					b.Free()
					if b.Raw() != nil {
						t.Fatalf("step %d: freed buffer still exposes its span", step)
					}
					delete(tags, b)
					live = append(live[:i], live[i+1:]...)
				case op.kind == 2:
					live[int(op.arg)%len(live)].Pin()
				default:
					live[int(op.arg)%len(live)].Unpin()
				}
				checkPool(t, step, p, live, tags)
			}
			for _, b := range live {
				b.Free()
			}
			checkPool(t, len(ops), p, nil, nil)
		})
	})
}

// checkPool asserts the pool invariants against the live buffers.
func checkPool(t *testing.T, step int, p *Pool, live []*HBuffer, tags map[*HBuffer]byte) {
	t.Helper()
	inUse, pinned := 0, 0
	spans := map[*byte]bool{}
	for _, b := range live {
		inUse += b.Pages()
		if b.Pinned() {
			pinned += b.Pages()
		}
		if spans[&b.Raw()[0]] {
			t.Fatalf("step %d: two live buffers share a span", step)
		}
		spans[&b.Raw()[0]] = true
		for i, x := range b.Raw() {
			if x != tags[b] {
				t.Fatalf("step %d: buffer %d byte %d = %#x, want its tag %#x", step, b.ID(), i, x, tags[b])
			}
		}
	}
	st := p.Stats()
	if st.InUsePages != inUse || st.PinnedPages != pinned {
		t.Fatalf("step %d: stats in-use %d pinned %d, live buffers hold %d and %d", step, st.InUsePages, st.PinnedPages, inUse, pinned)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	spare := 0
	for pages, s := range p.spare {
		for _, span := range s {
			if len(span) != pages*fuzzPageSize || spans[&span[0]] {
				t.Fatalf("step %d: spare span of %d bytes filed under %d pages (live: %v)", step, len(span), pages, spans[&span[0]])
			}
		}
		spare += pages * len(s)
	}
	if spare != p.sparePages {
		t.Fatalf("step %d: spare lists hold %d pages, counter says %d", step, spare, p.sparePages)
	}
	if spare > st.PeakPages-st.InUsePages || st.InUsePages == 0 && spare != 0 {
		t.Fatalf("step %d: %d spare pages with peak %d and in-use %d", step, spare, st.PeakPages, st.InUsePages)
	}
}
