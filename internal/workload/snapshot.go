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

// Save writes the walker's complete mutable state. The owning Region is not
// written: the restorer rebuilds it deterministically and matches walkers
// to regions by name.
func (w *Walker) Save(e *checkpoint.Enc) {
	reg := w.Reg
	n := len(reg.Slots)
	e.Int(int64(w.idx))
	e.Uint(uint64(n))
	checkpoint.PutIntColumnAt(e, n, reg.ctrSlot[:reg.loops], w.ctrs[:reg.loops])
	checkpoint.PutIntColumnAt(e, n, reg.ctrSlot[reg.loops:], w.ctrs[reg.loops:])
	checkpoint.PutInts(e, w.callStack)
	checkpoint.PutUints(e, w.cursors)
	checkpoint.PutUints(e, w.coldPage)
	checkpoint.PutInts(e, w.coldLeft)
	e.Uint(w.Count)
	e.Uint(w.ResetEvery)
	w.rng.Save(e)
}

// Load overwrites the walker's state from a section written by Save on a
// walker over a region of identical shape. A nonzero counter on a slot that
// holds no counter of its column's kind is damage.
func (w *Walker) Load(d *checkpoint.Dec) {
	n := len(w.Reg.Slots)
	w.idx = int(d.Int())
	if w.idx < 0 || w.idx >= n {
		d.Fail("walker position %d outside %d slots", w.idx, n)
		w.idx = 0
	}
	if !d.Expect(n, "walker slots") {
		return
	}
	clear(w.ctrs)
	w.loadCounters(d, 0, w.Reg.loops, "loop")
	w.loadCounters(d, w.Reg.loops, int32(len(w.ctrs)), "indirect-jump")
	w.callStack = checkpoint.GetInts(d, w.callStack)
	checkpoint.LoadUints(d, w.cursors, "walker cursors")
	checkpoint.LoadUints(d, w.coldPage, "walker cold pages")
	checkpoint.LoadInts(d, w.coldLeft, "walker cold counts")
	w.Count = d.Uint()
	w.ResetEvery = d.Uint()
	w.phase = 0
	if w.ResetEvery > 0 && w.Count > 0 {
		w.phase = (w.Count-1)%w.ResetEvery + 1
	}
	w.rng.Load(d)
}

// loadCounters reads one per-slot counter column into the ordinals
// [lo, hi) of w.ctrs.
func (w *Walker) loadCounters(d *checkpoint.Dec, lo, hi int32, kind string) {
	slots := w.Reg.Slots
	d.IntColumn(len(slots), func(i int, v int64) {
		c := slots[i].Ctr
		if c < lo || c >= hi {
			d.Fail("%s counter %d on slot %d, which holds none", kind, v, i)
			return
		}
		w.ctrs[c] = int32(v)
	})
}
