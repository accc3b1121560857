package conflict

import (
	"cmp"
	"slices"

	"repro/internal/checkpoint"
)

// The tracker's checkpoint layout is its base: the entry count, then the
// keys (ascending, each written as its difference from the previous key),
// then the TIDs, then the flags.
const (
	trackerPriv        = 1 << 0
	trackerInvalidated = 1 << 1
)

// Sync syncs the tracker's contents key-sorted, so that the section of a
// deterministic run is itself deterministic. Writing, it first merges the
// overlay into the base and keeps the result as the new base, so the next
// write sorts only the keys written after this one. Reading decodes into
// the base, keeping its capacity, so repeated loads onto one tracker do not
// reallocate. Keys that are not strictly ascending, and a TID or flag
// column of another length than the key column, are damage.
func (t *Tracker) Sync(c *checkpoint.Codec) {
	if c.Loading() {
		// Derived state: the overlay is a write buffer over the base, and
		// the section replaces both.
		t.resetOverlay()
	}
	t.merge()
	checkpoint.Len(c, &t.keys, -1, "tracker keys")
	checkpoint.Ascending(c, t.keys, "tracker keys")
	t.tids = checkpoint.Resize(t.tids, len(t.keys))
	t.flags = checkpoint.Resize(t.flags, len(t.keys))
	checkpoint.Array(c, t.tids, "tracker TIDs")
	checkpoint.Array(c, t.flags, "tracker flags")
	if c.Failed() {
		t.keys, t.tids, t.flags = t.keys[:0], t.tids[:0], t.flags[:0]
	}
}

// merge folds the overlay into the base and empties it.
func (t *Tracker) merge() {
	if t.ovLen == 0 {
		return
	}
	ov := make([]slot, 0, t.ovLen)
	for _, s := range t.ov {
		if s.gen == t.ovGen {
			ov = append(ov, s)
		}
	}
	slices.SortFunc(ov, func(a, b slot) int { return cmp.Compare(a.key, b.key) })
	n := len(t.keys) + len(ov)
	keys := make([]uint64, 0, n)
	tids := make([]uint32, 0, n)
	flags := make([]uint8, 0, n)
	i := 0
	for _, o := range ov {
		j, found := slices.BinarySearch(t.keys[i:], o.key)
		j += i
		keys = append(keys, t.keys[i:j]...)
		tids = append(tids, t.tids[i:j]...)
		flags = append(flags, t.flags[i:j]...)
		keys = append(keys, o.key)
		tids = append(tids, o.tid)
		flags = append(flags, o.flags)
		if found {
			j++ // the overlay entry shadows the base's
		}
		i = j
	}
	t.keys = append(keys, t.keys[i:]...)
	t.tids = append(tids, t.tids[i:]...)
	t.flags = append(flags, t.flags[i:]...)
	t.resetOverlay()
}

// Sync syncs the miss-cause matrix.
func (m *Matrix) Sync(c *checkpoint.Codec) {
	for p := range m.Counts {
		checkpoint.Array(c, m.Counts[p][:], "miss causes")
	}
}

// Sync syncs the constructive-sharing matrix.
func (s *Sharing) Sync(c *checkpoint.Codec) {
	for p := range s.Avoided {
		checkpoint.Array(c, s.Avoided[p][:], "shared fills")
	}
}
