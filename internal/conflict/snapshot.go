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

// Save writes the tracker's contents key-sorted, so that the section of a
// deterministic run is itself deterministic. It first merges the overlay
// into the base and keeps the result as the new base, so the next Save
// sorts only the keys written after this one.
func (t *Tracker) Save(e *checkpoint.Enc) {
	t.merge()
	e.Uint(uint64(len(t.keys)))
	prev := uint64(0)
	for _, k := range t.keys {
		e.Uint(k - prev)
		prev = k
	}
	checkpoint.PutUints(e, t.tids)
	checkpoint.PutUints(e, t.flags)
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

// Load replaces the tracker's contents with a section written by Save: it
// decodes into the base and empties the overlay. Both keep their capacity,
// so repeated loads onto one tracker do not reallocate. Keys that are not
// strictly ascending, and a TID or flag column shorter than the key column,
// are damage.
func (t *Tracker) Load(d *checkpoint.Dec) {
	n := d.Len()
	t.keys = checkpoint.Resize(t.keys, n)
	var k uint64
	for i := range t.keys {
		delta := d.Uint()
		if i > 0 && (delta == 0 || k+delta < k) {
			d.Fail("tracker keys not strictly ascending at entry %d", i)
		}
		k += delta
		t.keys[i] = k
	}
	if d.Expect(n, "tracker TIDs") {
		t.tids = checkpoint.Resize(t.tids, n)
		for i := range t.tids {
			t.tids[i] = uint32(d.Uint())
		}
	}
	if d.Expect(n, "tracker flags") {
		t.flags = checkpoint.Resize(t.flags, n)
		for i := range t.flags {
			t.flags[i] = uint8(d.Uint())
		}
	}
	if d.Failed() {
		t.keys, t.tids, t.flags = t.keys[:0], t.tids[:0], t.flags[:0]
	}
	t.resetOverlay()
}

// Save writes the miss-cause matrix.
func (m *Matrix) Save(e *checkpoint.Enc) {
	for p := range m.Counts {
		checkpoint.PutUints(e, m.Counts[p][:])
	}
}

// Load reads a matrix written by Save.
func (m *Matrix) Load(d *checkpoint.Dec) {
	for p := range m.Counts {
		checkpoint.LoadUints(d, m.Counts[p][:], "miss causes")
	}
}

// Save writes the constructive-sharing matrix.
func (s *Sharing) Save(e *checkpoint.Enc) {
	for p := range s.Avoided {
		checkpoint.PutUints(e, s.Avoided[p][:])
	}
}

// Load reads a matrix written by Save.
func (s *Sharing) Load(d *checkpoint.Dec) {
	for p := range s.Avoided {
		checkpoint.LoadUints(d, s.Avoided[p][:], "shared fills")
	}
}
