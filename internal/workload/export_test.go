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

// DenseSection encodes w's section in Save's field order, with the counter
// columns written from the dense per-slot arrays loops and visits by
// PutIntColumn: the reference Save's bytes must equal.
func DenseSection(w *Walker, loops, visits []int32) []byte {
	var e checkpoint.Enc
	e.Int(int64(w.idx))
	e.Uint(uint64(len(loops)))
	checkpoint.PutIntColumn(&e, loops)
	checkpoint.PutIntColumn(&e, visits)
	checkpoint.PutInts(&e, w.callStack)
	checkpoint.PutUints(&e, w.cursors)
	checkpoint.PutUints(&e, w.coldPage)
	checkpoint.PutInts(&e, w.coldLeft)
	e.Uint(w.Count)
	e.Uint(w.ResetEvery)
	w.rng.Save(&e)
	return e.Bytes()
}
