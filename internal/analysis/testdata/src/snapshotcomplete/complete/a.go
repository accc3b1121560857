// Fixture for snapshotcomplete: fully-covered types produce no diagnostics,
// including coverage through same-type helper methods.
package complete

// Enc and Dec stand in for the checkpoint section codec.
type Enc struct{ buf []uint64 }

func (e *Enc) Uint(v uint64) { e.buf = append(e.buf, v) }

type Dec struct{ buf []uint64 }

func (d *Dec) Uint() uint64 {
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

type Counter struct {
	ticks uint64
	hits  uint64
}

func (c *Counter) Save(e *Enc) {
	e.Uint(c.ticks)
	e.Uint(c.hits)
}

func (c *Counter) Load(d *Dec) {
	c.ticks = d.Uint()
	c.hits = d.Uint()
}

// Split covers one field through a helper method on the same type.
type Split struct {
	x, y uint64
}

func (s *Split) Save(e *Enc) {
	e.Uint(s.x)
	s.saveY(e)
}

func (s *Split) saveY(e *Enc) { e.Uint(s.y) }

func (s *Split) Load(d *Dec) {
	s.x = d.Uint()
	s.loadY(d)
}

func (s *Split) loadY(d *Dec) { s.y = d.Uint() }

// NoPair has no Load method: not part of the checkpoint contract.
type NoPair struct {
	scratch int
}

func (n *NoPair) Save(e *Enc) {}

// Hist mirrors the latency histogram: a fixed bucket array plus scalar
// tallies. An array field counts as covered when any element is selected
// through it.
type Hist struct {
	buckets [8]uint64
	count   uint64
	sum     uint64
}

func (h *Hist) Save(e *Enc) {
	for _, b := range h.buckets {
		e.Uint(b)
	}
	e.Uint(h.count)
	e.Uint(h.sum)
}

func (h *Hist) Load(d *Dec) {
	for i := range h.buckets {
		h.buckets[i] = d.Uint()
	}
	h.count = d.Uint()
	h.sum = d.Uint()
}

// Kernel uses a Load-prefixed variant that takes an extra argument.
type Kernel struct {
	next uint64
}

func (k *Kernel) Save(e *Enc) { e.Uint(k.next) }

func (k *Kernel) LoadWith(d *Dec, factory func() int) { k.next = d.Uint() + uint64(factory()) }
