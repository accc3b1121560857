// Checkpoint serialization for the cache hierarchy: per-cache tag state,
// MSHR occupancy, bus cursors, and the store buffer.
package cache

import (
	"cmp"
	"slices"

	"repro/internal/checkpoint"
)

// Sync syncs one line.
func (l *line) Sync(c *checkpoint.Codec) {
	c.Uint(&l.tag)
	c.Uint(&l.lastUse)
	checkpoint.U(c, &l.fillerTID)
	c.Uint(&l.touched)
	c.Flags(&l.valid, &l.dirty, &l.fillerPriv)
}

// Sync syncs the cache's mutable state, on a cache of the same geometry
// when reading. Lines are sparse records: only lines that differ from the
// zero value are written, because a fresh L2 is >99% untouched early in a
// run. Invalidated lines keep their stale tag and lastUse, so comparing
// against the zero value (not valid) preserves them exactly.
func (c *Cache) Sync(cc *checkpoint.Codec) {
	checkpoint.Sparse(cc, c.lines, "cache lines")
	cc.Uint(&c.tick)
	c.tracker.Sync(cc)
	checkpoint.Array(cc, c.Accesses[:], "cache accesses")
	checkpoint.Array(cc, c.Misses[:], "cache misses")
	c.Causes.Sync(cc)
	c.Shared.Sync(cc)
	cc.Uint(&c.Invalidations)
	cc.Uint(&c.Writebacks)
}

// Sync syncs one MSHR table, its fills sorted by line address; more fills
// than the table holds is damage. The order of the fills has no effect on
// the simulation (line addresses are unique and every lookup is by
// address), so the table is kept sorted in place.
func (m *mshr) Sync(c *checkpoint.Codec) {
	slices.SortFunc(m.inflight, func(a, b mshrFill) int { return cmp.Compare(a.la, b.la) })
	checkpoint.Len(c, &m.inflight, m.cap, "MSHR fills")
	for i := range m.inflight {
		f := &m.inflight[i]
		c.Uint(&f.la)
		c.Uint(&f.ready)
	}
	c.Uint(&m.FullStalls)
	c.Uint(&m.latencyArea)
	c.Uint(&m.fills)
}

// Sync syncs the hierarchy's mutable state (configuration excluded).
func (h *Hierarchy) Sync(c *checkpoint.Codec) {
	h.L1I.Sync(c)
	h.L1D.Sync(c)
	h.L2.Sync(c)
	h.mshrI.Sync(c)
	h.mshrD.Sync(c)
	h.mshrL2.Sync(c)
	c.Uint(&h.l2NextFree)
	c.Uint(&h.memNextFree)
	c.Uint(&h.BusTransactions)
}

// Sync syncs the store buffer's state; more entries than its capacity is
// damage.
func (s *StoreBuffer) Sync(c *checkpoint.Codec) {
	checkpoint.Slice(c, &s.entries, s.capacity, "store-buffer entries")
	c.Uint(&s.FullStalls)
	c.Uint(&s.Pushed)
	c.Uint(&s.Drained)
}
