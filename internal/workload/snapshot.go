// Checkpoint serialization for workload walkers. Regions are static after
// Build (they are re-derived from configuration at restore time); everything
// a Walker mutates while running is captured here.
//
// The per-slot arrays (loop trip counters, indirect-jump visit counters) are
// almost entirely zero at any instant — well under 0.1% of slots hold a live
// counter — so they are written as columns, which store a mostly-zero array
// sparsely. A dense encoding costs megabytes per checkpoint and dominates
// library restore time; the sparse form is a few hundred bytes.
package workload

import "repro/internal/checkpoint"

// Save writes the walker's complete mutable state. The owning Region is not
// written: the restorer rebuilds it deterministically and matches walkers
// to regions by name.
func (w *Walker) Save(e *checkpoint.Enc) {
	e.Int(int64(w.idx))
	e.Uint(uint64(len(w.loops)))
	checkpoint.PutIntColumn(e, w.loops)
	checkpoint.PutIntColumn(e, w.switchPos)
	checkpoint.PutInts(e, w.callStack)
	checkpoint.PutUints(e, w.cursors)
	checkpoint.PutUints(e, w.coldPage)
	checkpoint.PutInts(e, w.coldLeft)
	e.Uint(w.Count)
	e.Uint(w.ResetEvery)
	w.rng.Save(e)
}

// Load overwrites the walker's state from a section written by Save on a
// walker over a region of identical shape.
func (w *Walker) Load(d *checkpoint.Dec) {
	w.idx = int(d.Int())
	if w.idx < 0 || w.idx > len(w.loops) {
		d.Fail("walker position %d outside %d slots", w.idx, len(w.loops))
		w.idx = 0
	}
	if !d.Expect(len(w.loops), "walker slots") {
		return
	}
	checkpoint.LoadIntColumn(d, w.loops)
	checkpoint.LoadIntColumn(d, w.switchPos)
	w.callStack = checkpoint.GetInts(d, w.callStack)
	checkpoint.LoadUints(d, w.cursors, "walker cursors")
	checkpoint.LoadUints(d, w.coldPage, "walker cold pages")
	checkpoint.LoadInts(d, w.coldLeft, "walker cold counts")
	w.Count = d.Uint()
	w.ResetEvery = d.Uint()
	w.rng.Load(d)
}
