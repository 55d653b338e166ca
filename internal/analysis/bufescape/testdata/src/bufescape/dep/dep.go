// Package dep provides helpers whose argument retention is visible to
// importers only through exported Retains facts.
package dep

// Cache retains every slice handed to Put.
type Cache struct {
	entries [][]byte
}

// Put stores p; its parameter is retained.
func (c *Cache) Put(p []byte) {
	c.entries = append(c.entries, p)
}

// PutIndirect retains p by delegating to Put, exercising the
// retention fixpoint across call chains.
func (c *Cache) PutIndirect(p []byte) {
	c.Put(p)
}

// Sum only reads p; not retained.
func Sum(p []byte) int {
	n := 0
	for _, b := range p {
		n += int(b)
	}
	return n
}

// Wrapped is a typed accessor over a byte slice, like gstruct.View.
type Wrapped struct {
	buf []byte
}

// Wrap returns p inside a Wrapped; importers see that only through the
// Returns bit of its fact.
func Wrap(p []byte) Wrapped {
	return Wrapped{buf: p}
}
