// Package membuf models GFlink's off-heap memory management
// (Section 4.1.2): page-granular direct buffers that live outside the
// garbage-collected JVM heap, can be pinned (cudaHostRegister) for
// asynchronous DMA, and whose raw bytes are handed to the transfer
// channel without any heap-to-native copy.
//
// Because the real simulator runs in Go, "off-heap" is a bookkeeping
// concept: what the package enforces is the allocation discipline the
// paper relies on — fixed page size (matching Flink's memory segments),
// a bounded pool per worker, page-aligned HBuffers, and the rule that a
// GStruct never straddles a page boundary (Section 5.1).
//
// Freed page spans are recycled so buffer churn stays out of the
// garbage collector: Free files a span by its page count, and Allocate
// reuses one of exactly that count, zeroed. A pool holds at most
// PeakPages-InUsePages spare pages and drops them all when its last
// buffer is freed. HBuffer handles are never reused, so a freed handle
// still answers Freed, but any view taken from it may now alias another
// buffer's pages.
package membuf

import (
	"fmt"
	"sync"
	"time"

	"gflink/internal/costmodel"
	"gflink/internal/vclock"
)

// DefaultPageSize matches Flink's default memory-segment size.
const DefaultPageSize = 32 * 1024

// Config sizes a Pool.
type Config struct {
	// PageSize is the allocation granule; HBuffer capacities round up to
	// it. Defaults to DefaultPageSize.
	PageSize int
	// CapacityPages bounds the pool; 0 means unbounded.
	CapacityPages int
}

// Pool is one worker's off-heap memory region.
type Pool struct {
	clock    *vclock.Clock
	model    costmodel.Model
	pageSize int
	capacity int // pages; 0 = unbounded

	mu      sync.Mutex
	inUse   int // pages
	peak    int
	allocs  int64
	frees   int64
	pinned  int // pages currently page-locked
	pinOps  int64
	nextIDs int64

	// Freed page spans kept for reuse, by page count. spare holds at most
	// peak-inUse pages, and nothing once inUse reaches 0.
	spare      map[int][][]byte
	sparePages int
}

// NewPool creates a pool on the given clock and hardware model.
func NewPool(clock *vclock.Clock, model costmodel.Model, cfg Config) *Pool {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	return &Pool{clock: clock, model: model, pageSize: cfg.PageSize, capacity: cfg.CapacityPages}
}

// PageSize returns the pool's allocation granule.
func (p *Pool) PageSize() int { return p.pageSize }

// Allocate returns an HBuffer of at least n bytes (rounded up to whole
// pages), reusing a freed span of the same page count, zeroed, when the
// pool has one. It fails when the pool's page budget is exhausted,
// modelling an off-heap OutOfMemory condition.
func (p *Pool) Allocate(n int) (*HBuffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("membuf: allocate %d bytes", n)
	}
	pages := (n + p.pageSize - 1) / p.pageSize
	p.mu.Lock()
	if p.capacity > 0 && p.inUse+pages > p.capacity {
		avail := p.capacity - p.inUse
		p.mu.Unlock()
		return nil, fmt.Errorf("membuf: off-heap exhausted: need %d pages, %d available", pages, avail)
	}
	p.inUse += pages
	if p.inUse > p.peak {
		p.peak = p.inUse
	}
	p.allocs++
	p.nextIDs++
	id := p.nextIDs
	var data []byte
	if s := p.spare[pages]; len(s) > 0 {
		data = s[len(s)-1]
		s[len(s)-1] = nil
		p.spare[pages] = s[:len(s)-1]
		p.sparePages -= pages
	} else if p.sparePages > p.peak-p.inUse {
		// A fresh span would take the footprint past the peak.
		p.spare, p.sparePages = nil, 0
	}
	p.mu.Unlock()
	if data == nil {
		data = make([]byte, pages*p.pageSize)
	} else {
		clear(data)
	}
	return &HBuffer{
		id:    id,
		pool:  p,
		data:  data,
		size:  n,
		pages: pages,
	}, nil
}

// MustAllocate is Allocate panicking on failure.
func (p *Pool) MustAllocate(n int) *HBuffer {
	b, err := p.Allocate(n)
	if err != nil {
		panic(err)
	}
	return b
}

// Stats reports pool accounting.
type Stats struct {
	PageSize    int
	InUsePages  int
	PeakPages   int
	Allocs      int64
	Frees       int64
	PinnedPages int
	PinOps      int64
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		PageSize:    p.pageSize,
		InUsePages:  p.inUse,
		PeakPages:   p.peak,
		Allocs:      p.allocs,
		Frees:       p.frees,
		PinnedPages: p.pinned,
		PinOps:      p.pinOps,
	}
}

// HBuffer is GFlink's direct buffer: raw off-heap bytes with page
// bookkeeping. The zero value is invalid; obtain HBuffers from a Pool.
type HBuffer struct {
	id    int64
	pool  *Pool
	data  []byte
	size  int // requested size
	pages int

	// pinned and freed are guarded by pool.mu: buffers are handed
	// between stream workers, so their lifecycle flags must be as
	// race-free as the pool counters they mirror.
	pinned bool
	freed  bool
}

// ID returns a pool-unique buffer identity (used as default cache key
// material).
func (b *HBuffer) ID() int64 { return b.id }

// Bytes returns the logical contents (requested size, not the padded
// page span).
func (b *HBuffer) Bytes() []byte { return b.data[:b.size] }

// Raw returns the whole page span, as a DMA engine would see it.
func (b *HBuffer) Raw() []byte { return b.data }

// Size returns the requested byte size.
func (b *HBuffer) Size() int { return b.size }

// Pages returns the number of pages backing the buffer.
func (b *HBuffer) Pages() int { return b.pages }

// Pin page-locks the buffer (cudaHostRegister), a prerequisite for
// asynchronous DMA. Pinning charges the per-page registration cost on
// the virtual clock. Pinning a pinned buffer is a no-op.
func (b *HBuffer) Pin() {
	p := b.pool
	p.mu.Lock()
	if b.freed {
		p.mu.Unlock()
		panic("membuf: Pin on freed HBuffer")
	}
	if b.pinned {
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	// Charge registration time before publishing the pin; the clock
	// must not be blocked on while holding p.mu (lockhold invariant).
	p.clock.Sleep(p.model.Overheads.PinPage * time.Duration(b.pages))
	p.mu.Lock()
	if b.freed {
		p.mu.Unlock()
		panic("membuf: Pin on freed HBuffer")
	}
	if !b.pinned {
		b.pinned = true
		p.pinned += b.pages
		p.pinOps++
	}
	p.mu.Unlock()
}

// Unpin releases the page lock.
func (b *HBuffer) Unpin() {
	p := b.pool
	p.mu.Lock()
	if b.pinned {
		b.pinned = false
		p.pinned -= b.pages
	}
	p.mu.Unlock()
}

// Pinned reports whether the buffer is page-locked.
func (b *HBuffer) Pinned() bool {
	b.pool.mu.Lock()
	defer b.pool.mu.Unlock()
	return b.pinned
}

// Free returns the pages to the pool for reuse, releasing any page lock
// first; the handle's views must not be used afterwards.
// Double frees panic: the paper's GMemoryManager owns buffer lifetime
// exactly once.
func (b *HBuffer) Free() {
	p := b.pool
	p.mu.Lock()
	if b.freed {
		p.mu.Unlock()
		panic("membuf: double free of HBuffer")
	}
	b.freed = true
	if b.pinned {
		b.pinned = false
		p.pinned -= b.pages
	}
	p.inUse -= b.pages
	p.frees++
	if p.inUse == 0 {
		p.spare, p.sparePages = nil, 0
	} else {
		if p.spare == nil {
			p.spare = make(map[int][][]byte)
		}
		p.spare[b.pages] = append(p.spare[b.pages], b.data)
		p.sparePages += b.pages
	}
	b.data = nil
	p.mu.Unlock()
}

// Freed reports whether the buffer was released.
func (b *HBuffer) Freed() bool {
	b.pool.mu.Lock()
	defer b.pool.mu.Unlock()
	return b.freed
}

// ElemsPerPage returns how many elements of the given stride fit in one
// page under the no-straddling rule (Section 5.1: "the content of a
// GStruct can not be stored across pages").
func ElemsPerPage(pageSize, stride int) int {
	if stride <= 0 {
		return 0
	}
	return pageSize / stride
}
