// Checkpoint serialization for the cache hierarchy: per-cache tag state,
// MSHR occupancy, bus cursors, and the store buffer.
package cache

import (
	"cmp"
	"slices"

	"repro/internal/checkpoint"
)

// Per-line flag bits in the cache section.
const (
	lineValid = 1 << iota
	lineDirty
	lineFillerPrv
)

// Save writes the cache's mutable state. Lines are written sparsely — only
// lines that differ from the zero value, each as its index gap from the
// previous written line and its fields — because a fresh L2 is >99%
// untouched early in a run.
func (c *Cache) Save(e *checkpoint.Enc) {
	e.Uint(uint64(len(c.lines)))
	k := 0
	for i := range c.lines {
		// Invalidated lines keep their stale tag/lastUse, so comparing
		// against the zero value (not valid) preserves them exactly.
		if c.lines[i] != (line{}) {
			k++
		}
	}
	e.Uint(uint64(k))
	next := 0
	for i := range c.lines {
		l := &c.lines[i]
		if *l == (line{}) {
			continue
		}
		e.Uint(uint64(i - next))
		e.Uint(l.tag)
		e.Uint(l.lastUse)
		e.Uint(uint64(l.filler.TID))
		e.Uint(l.touched)
		e.Uint(checkpoint.Flags(l.valid, l.dirty, l.filler.Priv))
		next = i + 1
	}
	e.Uint(c.tick)
	c.tracker.Save(e)
	checkpoint.PutUints(e, c.Accesses[:])
	checkpoint.PutUints(e, c.Misses[:])
	c.Causes.Save(e)
	c.Shared.Save(e)
	e.Uint(c.Invalidations)
	e.Uint(c.Writebacks)
}

// Load overwrites the cache's state from a section written by Save on a
// cache of the same geometry.
func (c *Cache) Load(d *checkpoint.Dec) {
	if !d.Expect(len(c.lines), "cache lines") {
		return
	}
	clear(c.lines)
	k := d.Len()
	next := 0
	for j := 0; j < k; j++ {
		i := next + d.Index(len(c.lines)-next)
		if d.Failed() {
			break
		}
		l := &c.lines[i]
		l.tag = d.Uint()
		l.lastUse = d.Uint()
		l.filler.TID = uint32(d.Uint())
		l.touched = d.Uint()
		flags := d.Uint()
		l.valid = flags&lineValid != 0
		l.dirty = flags&lineDirty != 0
		l.filler.Priv = flags&lineFillerPrv != 0
		next = i + 1
	}
	c.tick = d.Uint()
	c.tracker.Load(d)
	checkpoint.LoadUints(d, c.Accesses[:], "cache accesses")
	checkpoint.LoadUints(d, c.Misses[:], "cache misses")
	c.Causes.Load(d)
	c.Shared.Load(d)
	c.Invalidations = d.Uint()
	c.Writebacks = d.Uint()
}

// save writes one MSHR table, its fills sorted by line address.
func (m *mshr) save(e *checkpoint.Enc) {
	fills := slices.Clone(m.inflight)
	slices.SortFunc(fills, func(a, b mshrFill) int { return cmp.Compare(a.la, b.la) })
	e.Uint(uint64(len(fills)))
	for _, f := range fills {
		e.Uint(f.la)
		e.Uint(f.ready)
	}
	e.Uint(m.FullStalls)
	e.Uint(m.latencyArea)
	e.Uint(m.fills)
}

// load reads a table written by save; more fills than the table holds is
// damage.
func (m *mshr) load(d *checkpoint.Dec) {
	n := d.Len()
	if n > m.cap {
		d.Fail("%d in-flight fills, MSHR holds %d", n, m.cap)
		n = 0
	}
	m.inflight = checkpoint.Resize(m.inflight, n)
	for i := range m.inflight {
		m.inflight[i] = mshrFill{la: d.Uint(), ready: d.Uint()}
	}
	m.FullStalls = d.Uint()
	m.latencyArea = d.Uint()
	m.fills = d.Uint()
}

// Save writes the hierarchy's mutable state (configuration excluded).
func (h *Hierarchy) Save(e *checkpoint.Enc) {
	h.L1I.Save(e)
	h.L1D.Save(e)
	h.L2.Save(e)
	h.mshrI.save(e)
	h.mshrD.save(e)
	h.mshrL2.save(e)
	e.Uint(h.l2NextFree)
	e.Uint(h.memNextFree)
	e.Uint(h.BusTransactions)
}

// Load overwrites the hierarchy's state from a section written by Save.
func (h *Hierarchy) Load(d *checkpoint.Dec) {
	h.L1I.Load(d)
	h.L1D.Load(d)
	h.L2.Load(d)
	h.mshrI.load(d)
	h.mshrD.load(d)
	h.mshrL2.load(d)
	h.l2NextFree = d.Uint()
	h.memNextFree = d.Uint()
	h.BusTransactions = d.Uint()
}

// Save writes the store buffer's state.
func (s *StoreBuffer) Save(e *checkpoint.Enc) {
	checkpoint.PutUints(e, s.entries)
	e.Uint(s.FullStalls)
	e.Uint(s.Pushed)
	e.Uint(s.Drained)
}

// Load overwrites the store buffer's state; more entries than its capacity
// is damage.
func (s *StoreBuffer) Load(d *checkpoint.Dec) {
	s.entries = checkpoint.GetUints(d, s.entries)
	if len(s.entries) > s.capacity {
		d.Fail("%d store-buffer entries, capacity %d", len(s.entries), s.capacity)
		s.entries = s.entries[:0]
	}
	s.FullStalls = d.Uint()
	s.Pushed = d.Uint()
	s.Drained = d.Uint()
}
