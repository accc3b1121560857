// Checkpoint serialization and auditor accessors for the memory model.
package mem

import (
	"sort"

	"repro/internal/checkpoint"
)

// PTE is one serialized page-table entry.
type PTE struct {
	PID uint64
	VPN uint64
	PFN uint64
}

// RSSEntry is one process's resident-set count.
type RSSEntry struct {
	PID   uint64
	Pages uint64
}

// Sync syncs the memory's complete mutable state, on a Memory of the same
// physical size when reading. Frame numbers outside the machine are
// damage. The per-frame owner and referenced arrays are columns, nonzero
// only below the allocator's bump pointer. The RSS counts and page tables
// are maps in memory and lists on disk, in PID (then VPN) order, so the
// section of a deterministic run is itself deterministic.
func (m *Memory) Sync(c *checkpoint.Codec) {
	c.Expect(int(m.frames), "frames")
	checkpoint.Len(c, &m.shared, -1, "shared ranges")
	for i := range m.shared {
		c.Uint(&m.shared[i].base)
		c.Uint(&m.shared[i].end)
	}
	c.Uint(&m.nextFrame)
	m.syncFrames(c, &m.free, "free frames")
	checkpoint.Zero(c, m.owners)
	checkpoint.Column(c, m.owners, func(o *mapping) *uint64 { return &o.pid })
	checkpoint.Column(c, m.owners, func(o *mapping) *uint64 { return &o.vpn })
	m.syncFrames(c, &m.fifo, "FIFO")
	checkpoint.I(c, &m.fifoHead)
	if c.Loading() && (m.fifoHead < 0 || m.fifoHead > len(m.fifo)) {
		// Checking input: the head lies inside the queue.
		c.Fail("FIFO head %d outside a queue of %d", m.fifoHead, len(m.fifo))
		m.fifoHead = 0
	}
	checkpoint.Zero(c, m.ref)
	checkpoint.BoolColumn(c, m.ref, func(b *bool) *bool { return b })
	m.syncFrames(c, &m.dirty, "dirty frames")
	checkpoint.Len(c, &m.evict, -1, "evictions")
	for i := range m.evict {
		ev := &m.evict[i]
		c.Uint(&ev.PID)
		c.Uint(&ev.VPN)
		checkpoint.Index(c, &ev.PFN, int(m.frames))
	}
	checkpoint.Map(c, m.rss)
	c.Uint(&m.limit)
	m.syncTables(c)
	c.Uint(&m.reserved)
	c.Uint(&m.Allocs)
	c.Uint(&m.Reclaims)
	c.Uint(&m.Refills)
	c.Uint(&m.Unmappings)
	c.Uint(&m.ReclaimScans)
	c.Uint(&m.SecondChances)
	c.Uint(&m.LimitOverruns)
	c.Uint(&m.RSSHighwater)
	c.Uint(&m.FramesHighwater)
}

// syncFrames syncs a list of frame numbers.
func (m *Memory) syncFrames(c *checkpoint.Codec, s *[]uint64, what string) {
	checkpoint.Len(c, s, -1, what)
	for i := range *s {
		checkpoint.Index(c, &(*s)[i], int(m.frames))
	}
}

// syncTables syncs the page tables: the count of PIDs with mappings, then
// per PID its id, mapping count, and (VPN gap, PFN) pairs in VPN order.
// Writing, the pairs come from a sorted view of the maps; reading, they go
// back into the maps.
func (m *Memory) syncTables(c *checkpoint.Codec) {
	var all []PTE // writing: every mapping, in (PID, VPN) order
	if c.Loading() {
		// Derived state: the maps are refilled from the section, into
		// their existing buckets.
		for _, t := range m.tables {
			clear(t)
		}
	} else {
		all = m.AllMappings()
	}
	pids := 0
	for i := range all {
		if i == 0 || all[i].PID != all[i-1].PID {
			pids++
		}
	}
	c.Count(&pids)
	for ; pids > 0 && !c.Failed(); pids-- {
		var pid uint64
		var run []PTE // writing: this PID's mappings
		if !c.Loading() {
			// Derived state: the next PID's run of the sorted view.
			pid = all[0].PID
			for len(run) < len(all) && all[len(run)].PID == pid {
				run = all[:len(run)+1]
			}
			all = all[len(run):]
		}
		n := len(run)
		c.Uint(&pid)
		c.Count(&n)
		t := m.tables[pid]
		if c.Loading() && t == nil {
			// Derived state: a PID new to this machine gets a table.
			t = make(map[uint64]uint64, n)
			m.tables[pid] = t
		}
		var vpn uint64
		for k := 0; k < n && !c.Failed(); k++ {
			var gap, pfn uint64
			if !c.Loading() {
				// Derived state: the pair is read off the sorted view.
				gap, pfn = run[k].VPN-vpn, run[k].PFN
			}
			c.Uint(&gap)
			vpn += gap
			checkpoint.Index(c, &pfn, int(m.frames))
			if c.Loading() {
				// Derived state: the pair goes back into the map.
				t[vpn] = pfn
			}
		}
	}
}

// AllMappings returns every page-table entry in (pid, vpn) sorted order
// (auditor access).
func (m *Memory) AllMappings() []PTE {
	var out []PTE
	for pid, t := range m.tables {
		for vpn, pfn := range t {
			out = append(out, PTE{PID: pid, VPN: vpn, PFN: pfn})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PID != out[j].PID {
			return out[i].PID < out[j].PID
		}
		return out[i].VPN < out[j].VPN
	})
	return out
}

// FreeFrames returns a copy of the free list (auditor access).
func (m *Memory) FreeFrames() []uint64 {
	return append([]uint64(nil), m.free...)
}

// DirtyFrames returns a copy of the reclaimer's staged-eviction list
// (auditor access).
func (m *Memory) DirtyFrames() []uint64 {
	return append([]uint64(nil), m.dirty...)
}

// RSSEntries returns every process's resident-set count in PID order
// (auditor access).
func (m *Memory) RSSEntries() []RSSEntry {
	out := make([]RSSEntry, 0, len(m.rss))
	for pid, pages := range m.rss {
		out = append(out, RSSEntry{PID: pid, Pages: pages})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].PID < out[j].PID })
	return out
}

// TablePIDs returns the PIDs that currently own a page table with at least
// one mapping, sorted (auditor access).
func (m *Memory) TablePIDs() []uint64 {
	var out []uint64
	for pid, t := range m.tables {
		if len(t) > 0 {
			out = append(out, pid)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Peek returns the physical frame mapped at (pid, vaddr), if any, without
// creating tables or mappings (auditor access; Translate would instantiate
// an empty page table for an unknown pid).
func (m *Memory) Peek(pid uint64, vaddr uint64) (pfn uint64, ok bool) {
	if IsKernelAddr(vaddr) || m.isShared(vaddr) {
		pid = KernelPID
	}
	t := m.tables[pid]
	if t == nil {
		return 0, false
	}
	pfn, ok = t[VPN(vaddr)]
	return pfn, ok
}
