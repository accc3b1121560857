package workload

import (
	"repro/internal/checkpoint"
	"repro/internal/isa"
)

// DenseCounters expands w's counters into per-slot loop-trip and
// indirect-jump-visit arrays (the layout walkers kept before their counters
// were compacted), reading each slot's ordinal from Slot.Ctr as NextInto
// does.
func DenseCounters(w *Walker) (loops, visits []int32) {
	loops = make([]int32, len(w.Reg.Slots))
	visits = make([]int32, len(w.Reg.Slots))
	for i, s := range w.Reg.Slots {
		switch {
		case s.Ctr < 0:
		case s.Kind == isa.CondBranch:
			loops[i] = w.ctrs[s.Ctr]
		default:
			visits[i] = w.ctrs[s.Ctr]
		}
	}
	return loops, visits
}

// DenseSection encodes w's section in Sync's field order, with the counter
// columns written from the dense per-slot arrays loops and visits by
// Column: the reference Sync's bytes must equal.
func DenseSection(w *Walker, loops, visits []int32) []byte {
	var e checkpoint.Codec
	checkpoint.I(&e, &w.idx)
	checkpoint.Len(&e, &loops, -1, "slots")
	self := func(v *int32) *int32 { return v }
	checkpoint.Column(&e, loops, self)
	checkpoint.Column(&e, visits, self)
	checkpoint.Slice(&e, &w.callStack, -1, "call stack")
	checkpoint.Array(&e, w.cursors, "cursors")
	checkpoint.Array(&e, w.coldPage, "cold pages")
	checkpoint.Array(&e, w.coldLeft, "cold counts")
	e.Uint(&w.Count)
	e.Uint(&w.ResetEvery)
	w.rng.Sync(&e)
	return e.Bytes()
}
