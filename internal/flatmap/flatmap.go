// Package flatmap is a deterministic flat int→int hash table with
// free-listed entries — the replacement for the Go maps that used to sit on
// the network demux paths (netsim's conn→file-size table, the kernel's
// conn→socket table).
//
// Why not a Go map: iteration order aside (snapshots needed canonical-sort
// workarounds), Go maps allocate per growth increment and cannot recycle
// entry storage. This table is two flat slices — power-of-two bucket heads
// and a chained entry pool with a LIFO freelist — so steady-state
// Put/Get/Delete touch no allocator at all and layout is a pure function of
// the operation history, which is itself deterministic.
//
// The table is not serialized: checkpoint users rebuild it from their own
// saved state on restore, in place with Reset (Range provides a
// deterministic entry-pool walk for section writers, which sort by key
// anyway).
package flatmap

const (
	minBuckets = 8
	// maxLoadNum/maxLoadDen is the load factor that triggers a bucket-array
	// doubling: 13/16 ≈ 0.81, snug for chained buckets.
	maxLoadNum = 13
	maxLoadDen = 16
)

type entry struct {
	key, val int
	next     int32 // bucket chain or freelist link; -1 ends either
	live     bool
}

// IntMap maps int keys to int values. The zero value is not ready; use New.
type IntMap struct {
	buckets []int32 // head entry index per bucket; -1 = empty
	entries []entry // flat entry pool; dead entries sit on the freelist
	free    int32   // freelist head; -1 = empty
	n       int     // live entries
	mask    uint64
}

// New returns a table pre-sized for about hint live entries.
func New(hint int) *IntMap {
	m := &IntMap{}
	m.Reset(hint)
	return m
}

// Reset empties the table and sizes it for about hint live entries,
// keeping its storage when that fits: large enough, and not more than
// four times what hint needs (a table that once held far more is
// reallocated, so its peak does not stay live). Afterwards the table is
// observably identical to New(hint): the same bucket count, an empty entry
// pool and freelist, so later Puts, growth and Range order match a fresh
// table's exactly. Checkpoint restores rebuild their indexes with it.
func (m *IntMap) Reset(hint int) {
	nb := minBuckets
	for hint*maxLoadDen > nb*maxLoadNum {
		nb <<= 1
	}
	if c := cap(m.buckets); c >= nb && c <= 4*nb {
		m.buckets = m.buckets[:nb]
	} else {
		m.buckets = make([]int32, nb)
	}
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	if c := cap(m.entries); c >= hint && c <= 4*max(hint, minBuckets) {
		m.entries = m.entries[:0]
	} else {
		m.entries = make([]entry, 0, hint)
	}
	m.free = -1
	m.n = 0
	m.mask = uint64(nb - 1)
}

// bucket returns the bucket index for a key (Fibonacci hashing: multiply by
// the 64-bit golden ratio and keep the top bits — deterministic and well
// mixed for the small sequential ids the network layer uses).
func (m *IntMap) bucket(key int) uint64 {
	return (uint64(key) * 0x9e3779b97f4a7c15 >> 32) & m.mask
}

// Len returns the number of live entries.
func (m *IntMap) Len() int { return m.n }

// Get returns the value stored for key.
func (m *IntMap) Get(key int) (int, bool) {
	for i := m.buckets[m.bucket(key)]; i >= 0; i = m.entries[i].next {
		if m.entries[i].key == key {
			return m.entries[i].val, true
		}
	}
	return 0, false
}

// Put inserts or overwrites the value for key.
func (m *IntMap) Put(key, val int) {
	b := m.bucket(key)
	for i := m.buckets[b]; i >= 0; i = m.entries[i].next {
		if m.entries[i].key == key {
			m.entries[i].val = val
			return
		}
	}
	if (m.n+1)*maxLoadDen > len(m.buckets)*maxLoadNum {
		m.grow()
		b = m.bucket(key)
	}
	var idx int32
	if m.free >= 0 {
		idx = m.free
		m.free = m.entries[idx].next
		m.entries[idx] = entry{key: key, val: val, next: m.buckets[b], live: true}
	} else {
		idx = int32(len(m.entries))
		m.entries = append(m.entries, entry{key: key, val: val, next: m.buckets[b], live: true})
	}
	m.buckets[b] = idx
	m.n++
}

// Delete removes key, returning whether it was present. The entry slot goes
// on the LIFO freelist for the next Put.
func (m *IntMap) Delete(key int) bool {
	b := m.bucket(key)
	prev := int32(-1)
	for i := m.buckets[b]; i >= 0; i = m.entries[i].next {
		if m.entries[i].key != key {
			prev = i
			continue
		}
		if prev < 0 {
			m.buckets[b] = m.entries[i].next
		} else {
			m.entries[prev].next = m.entries[i].next
		}
		m.entries[i] = entry{next: m.free}
		m.free = i
		m.n--
		return true
	}
	return false
}

// grow doubles the bucket array and rechains every live entry. The chain
// order after a rehash is a deterministic function of entry-pool positions.
func (m *IntMap) grow() {
	nb := len(m.buckets) * 2
	m.buckets = make([]int32, nb) //detlint:ignore hotalloc amortized doubling, same budget as slice growth
	m.mask = uint64(nb - 1)
	for i := range m.buckets {
		m.buckets[i] = -1
	}
	for i := range m.entries {
		e := &m.entries[i]
		if !e.live {
			continue
		}
		b := m.bucket(e.key)
		e.next = m.buckets[b]
		m.buckets[b] = int32(i)
	}
}

// Range calls f for every live entry in entry-pool order (deterministic but
// not sorted; section writers sort by key). Not for hot paths.
func (m *IntMap) Range(f func(key, val int)) {
	for i := range m.entries {
		if m.entries[i].live {
			f(m.entries[i].key, m.entries[i].val)
		}
	}
}
