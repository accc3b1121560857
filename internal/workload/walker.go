package workload

import (
	"repro/internal/isa"
	"repro/internal/rng"
)

// Walker executes a Region, producing its dynamic instruction stream. It is
// infinite (a region never "ends"; finite excerpts are counted out by the
// kernel's generation stack) and fully deterministic given its RNG.
type Walker struct {
	Reg *Region //detlint:ignore snapshotcomplete static region pointer, re-linked by the owning workload on restore
	rng *rng.Rand
	idx int
	// ctrs holds one counter per counting slot, indexed by Slot.Ctr: the
	// trips left of a loop branch, or the visits to an indirect jump.
	ctrs      []int32
	callStack []int32
	cursors   []uint64
	coldPage  []uint64
	coldLeft  []int32
	// Count is the number of dynamic instructions emitted.
	Count uint64
	// ResetEvery, when nonzero, restarts the walk from slot 0 every that
	// many dynamic instructions — the program's outer event loop. It also
	// guarantees the walk cannot stay trapped in a degenerate cycle. Set it
	// only while Count is 0 (right after NewWalker): phase is derived from
	// both and is recomputed only by Sync.
	ResetEvery uint64
	// phase is the number of instructions emitted since the last reset
	// point, in [0, ResetEvery]; the walk resets when it reaches
	// ResetEvery. Counting it spares a Count%ResetEvery division per
	// instruction.
	phase uint64 //detlint:ignore snapshotcomplete derived from Count and ResetEvery, recomputed by Sync
}

// NewWalker returns a walker over reg driven by r. It numbers reg's
// counters if nothing has yet (a hand-built region).
func NewWalker(reg *Region, r *rng.Rand) *Walker {
	if !reg.numbered {
		reg.NumberCounters()
	}
	return &Walker{
		Reg:      reg,
		rng:      r,
		ctrs:     make([]int32, reg.Counters),
		cursors:  make([]uint64, len(reg.Data)),
		coldPage: make([]uint64, len(reg.Data)),
		coldLeft: make([]int32, len(reg.Data)),
	}
}

// PC returns the program counter of the next instruction.
func (w *Walker) PC() uint64 { return w.Reg.PCOf(w.idx) }

// NextInto writes the next dynamic instruction over every field of *in.
// It is the generation hot path: the kernel generates straight into its
// feed buffer, with no by-value return to copy.
func (w *Walker) NextInto(in *isa.Inst) {
	reg := w.Reg
	n := len(reg.Slots)
	if w.ResetEvery > 0 {
		if w.phase == w.ResetEvery {
			w.idx = 0
			w.callStack = w.callStack[:0]
			w.phase = 0
		}
		w.phase++
	}
	s := &reg.Slots[w.idx]
	*in = isa.Inst{
		PC:    reg.PCOf(w.idx),
		Class: s.Kind,
		Mode:  reg.Mode,
		Dep1:  s.Dep1,
		Dep2:  s.Dep2,
		Size:  8,
	}
	next := w.idx + 1
	if next >= n {
		next = 0
	}

	switch s.Kind {
	case isa.Load, isa.Store, isa.Sync:
		in.Addr, in.Physical = w.dataAddr(s)
	case isa.CondBranch:
		if s.Trips > 0 {
			trips := &w.ctrs[s.Ctr]
			if *trips == 0 {
				*trips = s.Trips
			}
			*trips--
			in.Taken = *trips > 0
		} else {
			in.Taken = w.rng.Bool(float64(s.TakenBias))
		}
		in.Target = reg.PCOf(int(s.Target))
		if in.Taken {
			next = int(s.Target)
		}
	case isa.UncondBranch:
		in.Taken = true
		in.Target = reg.PCOf(int(s.Target))
		if s.IsCall {
			ret := w.idx + 1
			if ret >= n {
				ret = 0
			}
			if len(w.callStack) < 64 {
				w.callStack = append(w.callStack, int32(ret))
			}
		}
		next = int(s.Target)
	case isa.IndirectJump:
		in.Taken = true
		var tgt int32
		if s.IsRet && len(w.callStack) > 0 {
			tgt = w.callStack[len(w.callStack)-1]
			w.callStack = w.callStack[:len(w.callStack)-1]
		} else if s.IsRet {
			// Unmatched return (stack drained by a reset or imbalance):
			// scatter deterministically rather than funneling to slot 0.
			w.ctrs[s.Ctr]++
			tgt = int32((uint64(w.idx)*2654435761 + uint64(w.ctrs[s.Ctr])*97) % uint64(n))
		} else if s.NumTargets > 1 {
			w.ctrs[s.Ctr]++
			k := w.ctrs[s.Ctr]
			if k%16 == 0 {
				// Every fourth execution the dispatch lands somewhere new
				// (hash of site and visit count): this is the kernel's
				// "repeated changes in the target address of indirect
				// jumps" (§3.1.2), and it keeps the walk ergodic — no
				// basin of hot routines can trap it.
				tgt = int32((uint64(w.idx)*2654435761 + uint64(k)*40503) % uint64(n))
			} else {
				tgt = (s.Target + ((k/16)%s.NumTargets)*17) % int32(n)
			}
		} else {
			tgt = s.Target % int32(n)
		}
		in.Target = reg.PCOf(int(tgt))
		next = int(tgt)
	}

	w.idx = next
	w.Count++
}

// dataAddr produces the address for a memory slot.
func (w *Walker) dataAddr(s *Slot) (addr uint64, physical bool) {
	if len(w.Reg.Data) == 0 {
		return 0, false
	}
	d := &w.Reg.Data[s.Data]
	var off uint64
	switch s.Pattern {
	case PatSeq:
		wrap := d.Hot
		if d.Stream {
			wrap = d.Size
		}
		w.cursors[s.Data] = (w.cursors[s.Data] + uint64(s.Stride)) % wrap
		off = w.cursors[s.Data]
	case PatHot:
		off = w.rng.Uint64n(maxU64(d.Hot, 8))
	default: // PatCold
		// Cold accesses roam the whole region but with page-level
		// clustering (real programs touch a dozen-odd spots on a page
		// before moving on); this keeps TLB behavior realistic while the
		// cache still sees mostly-cold lines.
		if w.coldLeft[s.Data] <= 0 {
			w.coldPage[s.Data] = w.rng.Uint64n(maxU64(d.Size>>13, 1)) << 13
			w.coldLeft[s.Data] = int32(2 + w.rng.Intn(12))
		}
		w.coldLeft[s.Data]--
		off = w.coldPage[s.Data] + w.rng.Uint64n(8192)
		if off >= d.Size {
			off = w.rng.Uint64n(maxU64(d.Size, 8))
		}
	}
	return d.Base + (off &^ 7), d.Physical
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
