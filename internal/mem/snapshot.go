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

// Save writes the memory's complete mutable state. Page tables are written
// in (pid, vpn) sorted order so the section of a deterministic run is
// itself deterministic; the per-frame owner and referenced arrays are
// columns, nonzero only below the allocator's bump pointer.
func (m *Memory) Save(e *checkpoint.Enc) {
	e.Uint(m.frames)
	e.Uint(uint64(len(m.shared)))
	for _, r := range m.shared {
		e.Uint(r.base)
		e.Uint(r.end)
	}
	e.Uint(m.nextFrame)
	checkpoint.PutUints(e, m.free)
	e.Column(len(m.owners), func(i int) uint64 { return m.owners[i].pid })
	e.Column(len(m.owners), func(i int) uint64 { return m.owners[i].vpn })
	checkpoint.PutUints(e, m.fifo)
	e.Int(int64(m.fifoHead))
	e.Column(len(m.ref), func(i int) uint64 {
		if m.ref[i] {
			return 1
		}
		return 0
	})
	checkpoint.PutUints(e, m.dirty)
	e.Uint(uint64(len(m.evict)))
	for _, ev := range m.evict {
		e.Uint(ev.PID)
		e.Uint(ev.VPN)
		e.Uint(ev.PFN)
	}
	rss := m.RSSEntries()
	e.Uint(uint64(len(rss)))
	for _, r := range rss {
		e.Uint(r.PID)
		e.Uint(r.Pages)
	}
	e.Uint(m.limit)
	m.saveTables(e)
	e.Uint(m.reserved)
	e.Uint(m.Allocs)
	e.Uint(m.Reclaims)
	e.Uint(m.Refills)
	e.Uint(m.Unmappings)
	e.Uint(m.ReclaimScans)
	e.Uint(m.SecondChances)
	e.Uint(m.LimitOverruns)
	e.Uint(m.RSSHighwater)
	e.Uint(m.FramesHighwater)
}

// saveTables writes the page tables: the count of pids with mappings, then
// per pid its id, mapping count, and (vpn gap, pfn) pairs in vpn order.
func (m *Memory) saveTables(e *checkpoint.Enc) {
	all := m.AllMappings()
	var pids int
	for i := range all {
		if i == 0 || all[i].PID != all[i-1].PID {
			pids++
		}
	}
	e.Uint(uint64(pids))
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].PID == all[i].PID {
			j++
		}
		e.Uint(all[i].PID)
		e.Uint(uint64(j - i))
		prev := uint64(0)
		for _, p := range all[i:j] {
			e.Uint(p.VPN - prev)
			e.Uint(p.PFN)
			prev = p.VPN
		}
		i = j
	}
}

// Load overwrites the memory's state from a section written by Save on a
// Memory of the same physical size. Frame numbers outside the machine are
// damage. The page-table and RSS maps are cleared and refilled rather
// than rebuilt, so a repeated load reuses their buckets.
func (m *Memory) Load(d *checkpoint.Dec) {
	if frames := d.Uint(); frames != m.frames && !d.Failed() {
		d.Fail("%d frames, machine has %d", frames, m.frames)
	}
	m.shared = checkpoint.Resize(m.shared, d.Len())
	for i := range m.shared {
		m.shared[i].base = d.Uint()
		m.shared[i].end = d.Uint()
	}
	m.nextFrame = d.Uint()
	m.free = m.loadFrames(d, m.free)
	clear(m.owners)
	d.Column(len(m.owners), func(i int, v uint64) { m.owners[i].pid = v })
	d.Column(len(m.owners), func(i int, v uint64) { m.owners[i].vpn = v })
	m.fifo = m.loadFrames(d, m.fifo)
	m.fifoHead = int(d.Int())
	if m.fifoHead < 0 || m.fifoHead > len(m.fifo) {
		d.Fail("FIFO head %d outside a queue of %d", m.fifoHead, len(m.fifo))
		m.fifoHead = 0
	}
	clear(m.ref)
	d.Column(len(m.ref), func(i int, _ uint64) { m.ref[i] = true })
	m.dirty = m.loadFrames(d, m.dirty)
	m.evict = checkpoint.Resize(m.evict, d.Len())
	for i := range m.evict {
		m.evict[i] = Eviction{PID: d.Uint(), VPN: d.Uint(), PFN: m.loadFrame(d)}
	}
	clear(m.rss)
	for n := d.Len(); n > 0 && !d.Failed(); n-- {
		pid := d.Uint()
		m.rss[pid] = d.Uint()
	}
	m.limit = d.Uint()
	m.loadTables(d)
	m.reserved = d.Uint()
	m.Allocs = d.Uint()
	m.Reclaims = d.Uint()
	m.Refills = d.Uint()
	m.Unmappings = d.Uint()
	m.ReclaimScans = d.Uint()
	m.SecondChances = d.Uint()
	m.LimitOverruns = d.Uint()
	m.RSSHighwater = d.Uint()
	m.FramesHighwater = d.Uint()
}

// loadTables reads page tables written by saveTables into the existing
// maps, emptied first.
func (m *Memory) loadTables(d *checkpoint.Dec) {
	for _, t := range m.tables {
		clear(t)
	}
	for pids := d.Len(); pids > 0 && !d.Failed(); pids-- {
		pid := d.Uint()
		n := d.Len()
		t := m.tables[pid]
		if t == nil {
			t = make(map[uint64]uint64, n)
			m.tables[pid] = t
		}
		vpn := uint64(0)
		for ; n > 0 && !d.Failed(); n-- {
			vpn += d.Uint()
			t[vpn] = m.loadFrame(d)
		}
	}
}

// loadFrame reads one frame number, which must name a frame of this
// machine.
func (m *Memory) loadFrame(d *checkpoint.Dec) uint64 {
	pfn := d.Uint()
	if pfn >= m.frames && !d.Failed() {
		d.Fail("frame %d outside %d frames", pfn, m.frames)
		return 0
	}
	return pfn
}

// loadFrames reads a frame list written by PutUints into dst.
func (m *Memory) loadFrames(d *checkpoint.Dec, dst []uint64) []uint64 {
	dst = checkpoint.Resize(dst, d.Len())
	for i := range dst {
		dst[i] = m.loadFrame(d)
	}
	return dst
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
