package conflict

import (
	"cmp"
	"slices"
)

// TrackerSnap is the serialized form of a Tracker. It is a struct of
// parallel arrays rather than a slice of per-key structs: gob decodes
// primitive-typed slices through its fast paths instead of reflecting over
// every element, and checkpoint restore decodes trackers with tens of
// thousands of keys on the hot path of checkpoint-library regeneration.
// Entry i is (Keys[i], TIDs[i], Flags[i]); Keys are strictly ascending.
// The layout is also the tracker's in-memory base, so Restore copies it.
type TrackerSnap struct {
	Keys []uint64
	TIDs []uint32
	// Flags packs the evictor booleans: bit 0 priv, bit 1 invalidated.
	Flags []uint8
}

const (
	trackerPriv        = 1 << 0
	trackerInvalidated = 1 << 1
)

// Snapshot returns the tracker's contents key-sorted, so that the
// serialized form of a deterministic run is itself deterministic. It merges
// the overlay into the base as it goes and keeps the result as the new
// base, so the next Snapshot sorts only the keys written after this one.
func (t *Tracker) Snapshot() TrackerSnap {
	ov := make([]slot, 0, t.ovLen)
	for _, s := range t.ov {
		if s.gen == t.ovGen {
			ov = append(ov, s)
		}
	}
	slices.SortFunc(ov, func(a, b slot) int { return cmp.Compare(a.key, b.key) })
	n := len(t.keys) + len(ov)
	s := TrackerSnap{
		Keys: make([]uint64, 0, n),
		TIDs: make([]uint32, 0, n),
		// A fully zero []uint8 still gob-encodes per element; that is fine
		// at this size, and Flags is rarely all zero in practice.
		Flags: make([]uint8, 0, n),
	}
	i := 0
	for _, o := range ov {
		j, found := slices.BinarySearch(t.keys[i:], o.key)
		j += i
		s.Keys = append(s.Keys, t.keys[i:j]...)
		s.TIDs = append(s.TIDs, t.tids[i:j]...)
		s.Flags = append(s.Flags, t.flags[i:j]...)
		s.Keys = append(s.Keys, o.key)
		s.TIDs = append(s.TIDs, o.tid)
		s.Flags = append(s.Flags, o.flags)
		if found {
			j++ // the overlay entry shadows the base's
		}
		i = j
	}
	s.Keys = append(s.Keys, t.keys[i:]...)
	s.TIDs = append(s.TIDs, t.tids[i:]...)
	s.Flags = append(s.Flags, t.flags[i:]...)
	t.Restore(s)
	return s
}

// Restore replaces the tracker's contents with a snapshot: it copies the
// snapshot into the base and empties the overlay. Both keep their capacity,
// so repeated restores onto one tracker do not reallocate. Restore trusts
// the key order Snapshot wrote (checkpoint images are CRC-protected); a
// snapshot whose arrays differ in length panics, as the other structures'
// Restore does on a geometry mismatch.
func (t *Tracker) Restore(s TrackerSnap) {
	if len(s.TIDs) != len(s.Keys) || len(s.Flags) != len(s.Keys) {
		panic("conflict: tracker snapshot arrays differ in length")
	}
	t.keys = append(t.keys[:0], s.Keys...)
	t.tids = append(t.tids[:0], s.TIDs...)
	t.flags = append(t.flags[:0], s.Flags...)
	t.resetOverlay()
}
