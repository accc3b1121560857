// Package conflict implements the miss-cause classification used throughout
// the paper's Tables 3 and 7: every miss in a hardware structure (cache,
// TLB, BTB) is attributed to the activity that displaced the entry —
// the same thread (intrathread conflict), a different thread in the same
// privilege class (interthread conflict), the opposite privilege class
// (user-kernel conflict), an explicit OS invalidation, or a first reference
// (compulsory).
//
// The paper's wording (Table 3 caption): "user-kernel conflicts are misses
// in which the user thread conflicted with some type of kernel activity
// (the kernel executing on behalf of this user thread, some other user
// thread, a kernel thread, or an interrupt)" — i.e. the classification is by
// privilege class, not by software-thread identity alone.
package conflict

import (
	"fmt"
	"math/bits"
	"slices"
)

// Agent identifies who performed an access: a software thread and whether
// it was executing privileged (kernel or PAL) code at the time.
type Agent struct {
	// TID is the software thread identifier.
	TID uint32
	// Priv is true for kernel/PAL-mode execution.
	Priv bool
}

// Cause classifies a miss.
type Cause uint8

const (
	// Compulsory: the entry was never resident before.
	Compulsory Cause = iota
	// Intrathread: displaced by the same thread in the same privilege class.
	Intrathread
	// Interthread: displaced by a different thread in the same privilege class.
	Interthread
	// UserKernel: displaced by activity of the opposite privilege class.
	UserKernel
	// Invalidation: removed by an explicit OS invalidation (cache flush,
	// TLB shootdown, ASN recycling).
	Invalidation

	// NumCauses is the number of miss causes.
	NumCauses = int(Invalidation) + 1
)

var causeNames = [NumCauses]string{
	"compulsory", "intrathread", "interthread", "user-kernel", "invalidation",
}

// String returns the cause name.
func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("Cause(%d)", uint8(c))
}

// Tracker remembers, for every key (cache line address, TLB page, BTB slot
// tag) that was ever displaced, who displaced it, so that the next miss on
// that key can be classified.
//
// The state is a frozen base plus an overlay. The base is the state as of
// the last Sync, held as key-sorted parallel arrays in the order
// the checkpoint section stores them, so loading a checkpoint decodes
// straight into three arrays instead of rehashing every key. Writes since then go to the overlay, a
// power-of-two open-addressing table with linear probing. A lookup checks
// the overlay first, then binary-searches the base; an overlay entry
// shadows the base entry for the same key.
type Tracker struct {
	keys  []uint64 // base, ascending
	tids  []uint32
	flags []uint8

	ov    []slot // len is a power of two
	ovGen uint16 // stamp of live overlay slots; any other stamp is empty
	ovLen int    // live overlay slots
}

// slot is one overlay entry. It is live only while gen equals the
// tracker's ovGen, so emptying the overlay is one increment, not a clear.
type slot struct {
	key   uint64
	tid   uint32
	gen   uint16
	flags uint8
}

const (
	// minOverlay is the overlay's first size in slots.
	minOverlay = 256
	// The overlay doubles before a write would fill more than 3/4 of it.
	maxLoadNum = 3
	maxLoadDen = 4
)

// NewTracker returns an empty Tracker.
func NewTracker() *Tracker {
	return &Tracker{}
}

func packFlags(by Agent) uint8 {
	if by.Priv {
		return trackerPriv
	}
	return 0
}

// home is key's first overlay probe position. The hash multiplies by the
// 64-bit golden ratio and keeps the top bits: line addresses and page
// numbers are clustered in their low bits, which would pile keys onto
// neighbouring slots of a low-bits hash.
func (t *Tracker) home(key uint64) int {
	shift := bits.LeadingZeros64(uint64(len(t.ov))) + 1 // 64 - log2(len)
	return int((key * 0x9e3779b97f4a7c15) >> shift)
}

// find returns key's overlay slot and whether it is live there; when it is
// not, the slot is where key would be inserted. The overlay must be
// non-empty in capacity.
func (t *Tracker) find(key uint64) (int, bool) {
	mask := len(t.ov) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.ov[i]
		if s.gen != t.ovGen {
			return i, false
		}
		if s.key == key {
			return i, true
		}
	}
}

// lookup returns the evictor recorded for key: the overlay's entry if it
// has one, else the base's.
func (t *Tracker) lookup(key uint64) (tid uint32, flags uint8, ok bool) {
	if t.ovLen > 0 {
		if i, ok := t.find(key); ok {
			return t.ov[i].tid, t.ov[i].flags, true
		}
	}
	if i, ok := slices.BinarySearch(t.keys, key); ok {
		return t.tids[i], t.flags[i], true
	}
	return 0, 0, false
}

// put records (key, tid, flags) in the overlay, replacing any entry for key.
func (t *Tracker) put(key uint64, tid uint32, flags uint8) {
	t.reserve()
	i, ok := t.find(key)
	if !ok {
		t.ovLen++
	}
	t.ov[i] = slot{key: key, tid: tid, gen: t.ovGen, flags: flags}
}

// reserve makes room for one more overlay entry, doubling the overlay when
// the write could push it past its load factor.
func (t *Tracker) reserve() {
	if (t.ovLen+1)*maxLoadDen <= len(t.ov)*maxLoadNum {
		return
	}
	old, oldGen := t.ov, t.ovGen
	size := max(2*len(old), minOverlay)
	t.ov = make([]slot, size) //detlint:ignore hotalloc amortized doubling: the overlay keeps its capacity across Sync, so it stops growing once it holds the busiest interval's writes
	t.ovGen = 1
	for _, s := range old {
		if s.gen == oldGen {
			i, _ := t.find(s.key)
			s.gen = t.ovGen
			t.ov[i] = s
		}
	}
}

// resetOverlay empties the overlay, keeping its capacity.
func (t *Tracker) resetOverlay() {
	t.ovLen = 0
	t.ovGen++
	if t.ovGen == 0 {
		// The stamp wrapped: slots from 65535 generations ago would read
		// as live again.
		clear(t.ov)
		t.ovGen = 1
	}
}

// Evicted records that key was displaced by agent (e.g. the agent whose fill
// replaced it).
func (t *Tracker) Evicted(key uint64, by Agent) {
	t.put(key, by.TID, packFlags(by))
}

// Invalidated records that key was removed by an explicit OS action.
func (t *Tracker) Invalidated(key uint64) {
	t.put(key, 0, trackerInvalidated)
}

// FirstSeen records that key has been resident at least once, so a future
// miss on it is not compulsory even if it was never formally evicted
// (e.g. trackers shared across structures).
func (t *Tracker) FirstSeen(key uint64, by Agent) {
	t.reserve()
	i, ok := t.find(key)
	if ok {
		return
	}
	if _, ok := slices.BinarySearch(t.keys, key); ok {
		return
	}
	t.ovLen++
	t.ov[i] = slot{key: key, tid: by.TID, gen: t.ovGen, flags: packFlags(by)}
}

// Seen reports whether key has ever been resident.
func (t *Tracker) Seen(key uint64) bool {
	_, _, ok := t.lookup(key)
	return ok
}

// Classify returns the cause of a miss on key by agent. A key never seen is
// a compulsory miss; Classify records nothing, the structure's own
// Evicted/FirstSeen calls do.
func (t *Tracker) Classify(key uint64, by Agent) Cause {
	tid, flags, ok := t.lookup(key)
	if !ok {
		return Compulsory
	}
	switch {
	case flags&trackerInvalidated != 0:
		return Invalidation
	case (flags&trackerPriv != 0) != by.Priv:
		return UserKernel
	case tid == by.TID:
		return Intrathread
	default:
		return Interthread
	}
}

// Len returns the number of keys tracked (for memory accounting in tests).
// Overlay keys that shadow a base key are counted once.
func (t *Tracker) Len() int {
	n := len(t.keys)
	for _, s := range t.ov {
		if s.gen != t.ovGen {
			continue
		}
		if _, ok := slices.BinarySearch(t.keys, s.key); !ok {
			n++
		}
	}
	return n
}

// Matrix accumulates classified misses split by the accessor's privilege
// class, exactly the layout of the paper's Tables 3 and 7 (User and Kernel
// columns × cause rows).
type Matrix struct {
	// Counts[priv][cause]: priv 0 = user, 1 = kernel.
	Counts [2][NumCauses]uint64
}

func privIndex(priv bool) int {
	if priv {
		return 1
	}
	return 0
}

// Add records one miss.
func (m *Matrix) Add(by Agent, c Cause) {
	m.Counts[privIndex(by.Priv)][c]++
}

// Total returns all misses recorded.
func (m *Matrix) Total() uint64 {
	var t uint64
	for p := range m.Counts {
		for c := range m.Counts[p] {
			t += m.Counts[p][c]
		}
	}
	return t
}

// Percent returns Counts[priv][cause] as a percentage of all misses in the
// matrix (the tables' "percentage of misses due to conflicts, sums to 100%").
func (m *Matrix) Percent(priv bool, c Cause) float64 {
	t := m.Total()
	if t == 0 {
		return 0
	}
	return 100 * float64(m.Counts[privIndex(priv)][c]) / float64(t)
}

// Sharing accumulates the constructive interthread-sharing statistic of the
// paper's Table 8: accesses that hit only because *another* thread had
// already fetched the entry ("misses avoided due to interthread
// cooperation"), split by the privilege class of the thread that would have
// missed and of the thread that prefetched.
type Sharing struct {
	// Avoided[accessorPriv][fillerPriv].
	Avoided [2][2]uint64
}

// Add records one avoided miss.
func (s *Sharing) Add(accessor, filler Agent) {
	s.Avoided[privIndex(accessor.Priv)][privIndex(filler.Priv)]++
}

// Total returns all avoided misses.
func (s *Sharing) Total() uint64 {
	return s.Avoided[0][0] + s.Avoided[0][1] + s.Avoided[1][0] + s.Avoided[1][1]
}
