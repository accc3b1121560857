// Checkpoint serialization for workload walkers. Regions are static after
// Build (they are re-derived from configuration at restore time); everything
// a Walker mutates while running is captured here.
//
// The walker's counters (loop trips left, indirect-jump visits) are
// written as two per-slot columns, loops then indirect jumps, over all of
// the region's slots: almost every entry is zero, so each column takes its
// sparse form and costs a few hundred bytes. The walker itself keeps only
// one counter per slot that can count (Region.NumberCounters) and writes
// the columns straight from them.
package workload

import "repro/internal/checkpoint"

// Sync syncs the walker's complete mutable state, on a walker over a
// region of identical shape when reading. The owning Region is not
// written: the restorer rebuilds it deterministically and matches walkers
// to regions by name. A nonzero counter on a slot that holds no counter of
// its column's kind is damage.
func (w *Walker) Sync(c *checkpoint.Codec) {
	reg := w.Reg
	n := len(reg.Slots)
	checkpoint.I(c, &w.idx)
	if c.Loading() && (w.idx < 0 || w.idx >= n) {
		// Checking input: the position names a slot.
		c.Fail("walker position %d outside %d slots", w.idx, n)
		w.idx = 0
	}
	if !c.Expect(n, "walker slots") {
		return
	}
	checkpoint.ColumnAt(c, n, reg.ctrSlot[:reg.loops], w.ctrs[:reg.loops], "loop counter")
	checkpoint.ColumnAt(c, n, reg.ctrSlot[reg.loops:], w.ctrs[reg.loops:], "indirect-jump counter")
	checkpoint.Slice(c, &w.callStack, -1, "call stack")
	checkpoint.Array(c, w.cursors, "walker cursors")
	checkpoint.Array(c, w.coldPage, "walker cold pages")
	checkpoint.Array(c, w.coldLeft, "walker cold counts")
	c.Uint(&w.Count)
	c.Uint(&w.ResetEvery)
	if c.Loading() {
		// Derived state: the reset phase follows from the count.
		w.phase = 0
		if w.ResetEvery > 0 && w.Count > 0 {
			w.phase = (w.Count-1)%w.ResetEvery + 1
		}
	}
	w.rng.Sync(c)
}
