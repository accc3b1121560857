// Fixture for snapshotcomplete: fully-covered types produce no diagnostics,
// including coverage through same-type helper methods and fields that a
// direction branch touches as well as the shared path.
package complete

// Codec stands in for the checkpoint section codec.
type Codec struct {
	loading bool
	buf     []uint64
}

func (c *Codec) Loading() bool { return c.loading }

func (c *Codec) Uint(p *uint64) {
	if c.loading {
		*p, c.buf = c.buf[0], c.buf[1:]
		return
	}
	c.buf = append(c.buf, *p)
}

type Counter struct {
	ticks uint64
	hits  uint64
}

func (k *Counter) Sync(c *Codec) {
	c.Uint(&k.ticks)
	c.Uint(&k.hits)
}

// Split covers one field through a helper method on the same type.
type Split struct {
	x, y uint64
}

func (s *Split) Sync(c *Codec) {
	c.Uint(&s.x)
	s.syncY(c)
}

func (s *Split) syncY(c *Codec) { c.Uint(&s.y) }

// NoSync has no Sync method: not part of the checkpoint contract.
type NoSync struct {
	scratch int
}

func (n *NoSync) Save(c *Codec) {}

// Hist mirrors the latency histogram: a fixed bucket array plus scalar
// tallies. An array field counts as covered when any element is selected
// through it.
type Hist struct {
	buckets [8]uint64
	count   uint64
	sum     uint64
}

func (h *Hist) Sync(c *Codec) {
	for i := range h.buckets {
		c.Uint(&h.buckets[i])
	}
	c.Uint(&h.count)
	c.Uint(&h.sum)
}

// Kernel takes an extra argument and relinks a reference when loading:
// the branch touches ref, which the shared path syncs too.
type Kernel struct {
	next uint64
	ref  *uint64
}

func (k *Kernel) Sync(c *Codec, resolve func(uint64) *uint64) {
	c.Uint(&k.next)
	var id uint64
	if k.ref != nil {
		id = *k.ref
	}
	c.Uint(&id)
	if c.Loading() {
		k.ref = resolve(id)
	}
}
