// Package dep exports a PoolSource fact consumed by the pool-row
// fixture package.
package dep

// Work is a pooled object.
type Work struct{ N int }

// Pool is a free-list of Works.
type Pool struct{ free []*Work }

// Get returns a pooled Work.
//
//gflink:pool
func (p *Pool) Get() *Work {
	if n := len(p.free); n > 0 {
		w := p.free[n-1]
		p.free = p.free[:n-1]
		return w
	}
	return &Work{}
}

// Put returns a Work to the free list.
func (p *Pool) Put(w *Work) { p.free = append(p.free, w) }
