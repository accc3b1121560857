package conflict

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/checkpoint"
)

// evictor is the reference model's record of what displaced a key: the
// Tracker used to be exactly a map[uint64]evictor, and FuzzTracker holds
// the base+overlay implementation to that map's behaviour.
type evictor struct {
	tid         uint32
	priv        bool
	invalidated bool
}

type oracle map[uint64]evictor

func (o oracle) classify(key uint64, by Agent) Cause {
	ev, ok := o[key]
	switch {
	case !ok:
		return Compulsory
	case ev.invalidated:
		return Invalidation
	case ev.priv != by.Priv:
		return UserKernel
	case ev.tid == by.TID:
		return Intrathread
	default:
		return Interthread
	}
}

// section encodes the oracle in the tracker's checkpoint layout: the
// canonical bytes a tracker holding the same entries must Save.
func (o oracle) section() []byte {
	keys := make([]uint64, 0, len(o))
	for k := range o {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	tids := make([]uint32, len(keys))
	flags := make([]uint8, len(keys))
	var e checkpoint.Enc
	e.Uint(uint64(len(keys)))
	prev := uint64(0)
	for i, k := range keys {
		e.Uint(k - prev)
		prev = k
		ev := o[k]
		tids[i] = ev.tid
		if ev.priv {
			flags[i] |= trackerPriv
		}
		if ev.invalidated {
			flags[i] |= trackerInvalidated
		}
	}
	checkpoint.PutUints(&e, tids)
	checkpoint.PutUints(&e, flags)
	return e.Bytes()
}

func (o oracle) clone() oracle {
	c := make(oracle, len(o))
	for k, v := range o {
		c[k] = v
	}
	return c
}

// fuzzKey maps an input byte to a key: a few dozen line-address-like keys
// (clustered in their low bits, as cache lines are) in two distant regions,
// so operations often hit the same key and both overlay and base.
func fuzzKey(b byte) uint64 {
	k := uint64(b&0x3f) << 6
	if b&0x40 != 0 {
		k |= 1 << 40
	}
	return k
}

// FuzzTracker runs random sequences of tracker operations, with Save and
// Load round trips in between, against the map it replaced. Each
// operation is three input bytes: opcode, key, agent (or count).
func FuzzTracker(f *testing.F) {
	f.Add([]byte{0, 1, 1, 3, 1, 2, 5, 0, 0, 3, 1, 9})
	f.Add([]byte{7, 0, 200, 5, 0, 0, 0, 3, 4, 8, 0, 0, 3, 3, 1, 6, 0, 0})
	f.Add([]byte{2, 5, 1, 1, 5, 0, 5, 1, 0, 0, 5, 12, 3, 5, 12, 9, 0, 0, 4, 5, 0})
	f.Fuzz(checkTrackerOps)
}

// checkTrackerOps is FuzzTracker's body.
func checkTrackerOps(t *testing.T, ops []byte) {
	tr := NewTracker()
	or := oracle{}
	saved, savedOr := save(tr), oracle{}
	mustLoad := func(step int, b []byte) {
		if err := load(tr, b); err != nil {
			t.Fatalf("step %d: Load: %v", step, err)
		}
	}
	for step := 0; len(ops) >= 3; step++ {
		op, key, a := ops[0], fuzzKey(ops[1]), ops[2]
		ops = ops[3:]
		ag := Agent{TID: uint32(a & 7), Priv: a&8 != 0}
		switch op % 10 {
		case 0:
			tr.Evicted(key, ag)
			or[key] = evictor{tid: ag.TID, priv: ag.Priv}
		case 1:
			tr.Invalidated(key)
			or[key] = evictor{invalidated: true}
		case 2:
			tr.FirstSeen(key, ag)
			if _, ok := or[key]; !ok {
				or[key] = evictor{tid: ag.TID, priv: ag.Priv}
			}
		case 3:
			if got, want := tr.Classify(key, ag), or.classify(key, ag); got != want {
				t.Fatalf("step %d: Classify(%#x, %+v) = %v, want %v", step, key, ag, got, want)
			}
		case 4:
			_, want := or[key]
			if got := tr.Seen(key); got != want {
				t.Fatalf("step %d: Seen(%#x) = %v, want %v", step, key, got, want)
			}
		case 5:
			// Round trip through a section, loaded into this tracker
			// or a fresh one; scribbling on the section afterwards
			// must not reach the tracker.
			s := save(tr)
			if want := or.section(); !bytes.Equal(s, want) {
				t.Fatalf("step %d: Save = %x, want %x", step, s, want)
			}
			if a&1 != 0 {
				tr = NewTracker()
			}
			mustLoad(step, s)
			for i := range s {
				s[i] = 0xff
			}
		case 6:
			if got, want := tr.Len(), len(or); got != want {
				t.Fatalf("step %d: Len = %d, want %d", step, got, want)
			}
		case 7:
			// A burst of evictions of neighbouring lines grows the
			// overlay past its first size.
			n := 4 * int(a)
			for i := 0; i < n; i++ {
				k := key + uint64(i)<<6
				tr.Evicted(k, Agent{TID: uint32(i & 3)})
				or[k] = evictor{tid: uint32(i & 3)}
			}
		case 8:
			saved, savedOr = save(tr), or.clone()
		case 9:
			// Load an older state over whatever the overlay holds
			// now, as RestoreInto does for each library window.
			mustLoad(step, bytes.Clone(saved))
			or = savedOr.clone()
		}
	}
	if got, want := tr.Len(), len(or); got != want {
		t.Fatalf("final Len = %d, want %d", got, want)
	}
	if got, want := save(tr), or.section(); !bytes.Equal(got, want) {
		t.Fatalf("final Save = %x, want %x", got, want)
	}
}
