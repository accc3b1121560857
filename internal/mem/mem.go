// Package mem models the machine's physical memory and per-process virtual
// address spaces: page tables, a physical-frame allocator, and the
// translation step used by the TLB-refill path of the behavioral kernel.
//
// The simulated machine follows the paper's Table 1: 128 MB of physical
// memory. Pages are 8 KB, as on the Alpha 21264. Virtual-to-physical
// mappings are created on first touch by the kernel's memory-management
// model — first-touch page allocation is what dominates the kernel
// memory-management entries of the paper's Figure 3.
package mem

import (
	"fmt"
	"slices"
)

const (
	// PageShift is log2 of the page size (8 KB pages, as on Alpha).
	PageShift = 13
	// PageSize is the virtual-memory page size in bytes.
	PageSize = 1 << PageShift
	// PageMask masks the offset within a page.
	PageMask = PageSize - 1
)

// VPN returns the virtual page number of a virtual address.
func VPN(vaddr uint64) uint64 { return vaddr >> PageShift }

// FrameBase returns the first physical address of a physical frame number.
func FrameBase(pfn uint64) uint64 { return pfn << PageShift }

// Canonical address-space layout used by the synthetic workloads. Each
// process's regions are offset by its PID so that distinct processes have
// distinct virtual PCs and data addresses (they also map to distinct
// physical frames).
const (
	// UserTextBase is the base virtual address of user program text.
	UserTextBase = 0x0000_0001_2000_0000
	// UserDataBase is the base virtual address of user data/heap.
	UserDataBase = 0x0000_0002_0000_0000
	// UserStackBase is the base virtual address of user stacks.
	UserStackBase = 0x0000_0003_f000_0000
	// PIDStride separates the address regions of different processes.
	PIDStride = 0x0000_0010_0000_0000

	// KernelTextBase is the base of the (shared, globally mapped) kernel
	// text region, mimicking the Alpha's high kseg addresses.
	KernelTextBase = 0xffff_fc00_0000_0000
	// KernelDataBase is the base of kernel data structures.
	KernelDataBase = 0xffff_fd00_0000_0000
	// PALTextBase is the base of PALcode, below the OS proper.
	PALTextBase = 0xffff_fe00_0000_0000
)

// KernelPID is the process ID that owns the shared kernel address space.
const KernelPID = 0

// Physical-memory layout of the simulated 128 MB machine (Table 1). The
// page allocator hands out frames below KernelPhysBase; the ranges above it
// are reserved for the kernel's directly (physically) addressed data and
// for PALcode, mirroring how Alpha PAL and kseg data sit outside the paged
// pool.
const (
	// AllocatorBytes is the portion managed by the page allocator.
	AllocatorBytes = 96 << 20
	// KernelPhysBase..KernelPhysBase+KernelPhysSize is the kernel's
	// physically-addressed data region (TLB-bypassing accesses).
	KernelPhysBase = 96 << 20
	// KernelPhysSize is the size of the kernel physical data region.
	KernelPhysSize = 28 << 20
	// PALPhysBase..PALPhysBase+PALPhysSize holds PALcode text.
	PALPhysBase = 124 << 20
	// PALPhysSize is the size of the PAL text region.
	PALPhysSize = 4 << 20
)

// IsKernelAddr reports whether a virtual address lies in the shared kernel
// (or PAL) region.
func IsKernelAddr(vaddr uint64) bool { return vaddr >= KernelTextBase }

// FaultKind classifies why the kernel VM model was entered for an address,
// feeding the paper's Figure 3 (incursions into kernel memory management).
type FaultKind uint8

const (
	// FaultNone: the mapping already existed; only a TLB refill was needed.
	FaultNone FaultKind = iota
	// FaultPageAlloc: first touch; a physical frame was allocated.
	FaultPageAlloc
	// FaultReclaim: allocation required reclaiming a frame from another
	// mapping (memory pressure).
	FaultReclaim
)

func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "tlb-refill"
	case FaultPageAlloc:
		return "page-alloc"
	case FaultReclaim:
		return "page-reclaim"
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// mapping records one virtual page's frame, for reclaim bookkeeping.
type mapping struct {
	pid uint64
	vpn uint64
}

// Eviction records one page evicted by the reclaimer, so the kernel can
// invalidate the victim's TLB entries and flush its cache lines — the frame
// is about to be handed to a different mapping.
type Eviction struct {
	PID uint64
	VPN uint64
	PFN uint64
}

// Low-watermark reclaim parameters. When an effective frame limit is
// configured (memory pressure from the exhaustion fault domain), the
// reclaimer behaves like a pagedaemon: one scan evicts a batch of victims so
// a small reserve of frames is on hand for the next allocations. Without a
// limit the allocator is at the true physical wall, where a reserve cannot
// help (every freed frame is consumed immediately), so it reclaims exactly
// one frame on demand — the pre-existing behavior.
const (
	lowWaterFrames = 8
	// minUserFrames is the floor of user-available frames SetFrameLimit
	// preserves above the kernel's resident set, so a squeeze can thrash
	// the machine but never wedge it.
	minUserFrames = 64
)

// Memory is the machine's physical memory plus all page tables.
type Memory struct {
	// shared lists user-space address ranges whose mappings are common to
	// all processes (e.g. the text of a forked server: all Apache
	// processes execute one set of physical pages).
	shared []struct{ base, end uint64 }

	frames     uint64
	nextFrame  uint64 //detlint:ignore counterflow frame allocator bump pointer, not a metric
	free       []uint64
	owners     []mapping // indexed by pfn: current owner, for reclaim
	fifo       []uint64  // allocation order, for FIFO reclaim
	fifoHead   int
	ref        []bool     // per-pfn second-chance referenced bit
	dirty      []uint64   // frames evicted by the reclaimer, awaiting reuse
	evict      []Eviction // evictions pending kernel TLB/cache invalidation
	rss        map[uint64]uint64
	limit      uint64                       // effective frame limit (0 = all of frames)
	tables     map[uint64]map[uint64]uint64 // pid -> vpn -> pfn
	reserved   uint64                       // frames reserved for kernel text/data
	Allocs     uint64                       // frames allocated (Figure 3: page allocation)
	Reclaims   uint64                       // frames reclaimed under pressure
	Refills    uint64                       // translations that only refilled the TLB
	Unmappings uint64                       // explicit unmaps (munmap, exit)

	// Reclaimer and pressure observability (reported beside the overload
	// counters; see internal/report).
	ReclaimScans    uint64 // fifo entries examined by the reclaimer
	SecondChances   uint64 // referenced pages spared (ref cleared, re-queued)
	LimitOverruns   uint64 // allocations that overran the soft frame limit
	RSSHighwater    uint64 // peak resident set of any single user process
	FramesHighwater uint64 // peak frames in use
}

// NewMemory returns a Memory with the given physical size in bytes.
// Sizes below one page are rejected.
func NewMemory(physBytes uint64) (*Memory, error) {
	if physBytes < PageSize {
		return nil, fmt.Errorf("mem: physical size %d smaller than one page", physBytes)
	}
	m := &Memory{
		frames: physBytes >> PageShift,
		tables: make(map[uint64]map[uint64]uint64),
		rss:    make(map[uint64]uint64),
	}
	m.owners = make([]mapping, m.frames)
	m.ref = make([]bool, m.frames)
	return m, nil
}

// Frames returns the number of physical frames.
func (m *Memory) Frames() uint64 { return m.frames }

// FramesInUse returns the number of currently allocated frames.
func (m *Memory) FramesInUse() uint64 {
	return m.nextFrame - uint64(len(m.free)) - uint64(len(m.dirty))
}

// effFrames returns the effective frame limit the allocator works against.
func (m *Memory) effFrames() uint64 {
	if m.limit > 0 && m.limit < m.frames {
		return m.limit
	}
	return m.frames
}

// SetFrameLimit caps the frames the allocator will keep in use (the
// exhaustion fault domain shrinking effective physical memory mid-run). The
// limit is soft — pinned kernel pages can force an overrun, counted in
// LimitOverruns — and is clamped so the kernel's resident set plus a minimal
// user working store always fits. n = 0 removes the limit. The applied value
// is returned.
func (m *Memory) SetFrameLimit(n uint64) uint64 {
	if n == 0 {
		m.limit = 0
		return 0
	}
	if floor := m.rss[KernelPID] + minUserFrames; n < floor {
		n = floor
	}
	if n > m.frames {
		n = m.frames
	}
	m.limit = n
	return n
}

// FrameLimit returns the configured soft frame limit (0 = none).
func (m *Memory) FrameLimit() uint64 { return m.limit }

// RSS returns the resident-set size of a process in pages. Shared text and
// kernel pages are charged to KernelPID, matching the page-table redirect.
func (m *Memory) RSS(pid uint64) uint64 { return m.rss[pid] }

// TakeEvictions drains and returns the pages evicted by the reclaimer since
// the last call. The kernel calls this after every Touch to invalidate the
// victims' TLB entries and flush their cache lines before the frames are
// reused.
func (m *Memory) TakeEvictions() []Eviction {
	if len(m.evict) == 0 {
		return nil
	}
	evs := m.evict
	m.evict = nil
	return evs
}

// ShareRange declares [base, base+size) as shared among all processes:
// every process maps those pages to the same frames (forked program text,
// shared libraries).
func (m *Memory) ShareRange(base, size uint64) {
	m.shared = append(m.shared, struct{ base, end uint64 }{base, base + size})
}

// isShared reports whether vaddr falls in a shared user range.
func (m *Memory) isShared(vaddr uint64) bool {
	for _, r := range m.shared {
		if vaddr >= r.base && vaddr < r.end {
			return true
		}
	}
	return false
}

// table returns (creating if needed) the page table for pid. Kernel-region
// addresses and shared user ranges always use the shared kernel table
// regardless of pid.
func (m *Memory) table(pid uint64, vaddr uint64) (uint64, map[uint64]uint64) {
	if IsKernelAddr(vaddr) || m.isShared(vaddr) {
		pid = KernelPID
	}
	t := m.tables[pid]
	if t == nil {
		t = make(map[uint64]uint64)
		m.tables[pid] = t
	}
	return pid, t
}

// Translate looks up the physical address for (pid, vaddr). ok is false if
// the page is not mapped; the caller (the kernel VM model) must then call
// Touch to establish the mapping.
func (m *Memory) Translate(pid uint64, vaddr uint64) (paddr uint64, ok bool) {
	_, t := m.table(pid, vaddr)
	pfn, ok := t[VPN(vaddr)]
	if !ok {
		return 0, false
	}
	return FrameBase(pfn) | (vaddr & PageMask), true
}

// Touch ensures (pid, vaddr) is mapped, allocating (and if necessary
// reclaiming) a frame, and returns the physical address plus the kind of
// memory-management work that was required. This is the operation the
// kernel's page-fault / TLB-miss path performs.
func (m *Memory) Touch(pid uint64, vaddr uint64) (paddr uint64, kind FaultKind) {
	owner, t := m.table(pid, vaddr)
	vpn := VPN(vaddr)
	if pfn, ok := t[vpn]; ok {
		m.Refills++
		m.ref[pfn] = true
		return FrameBase(pfn) | (vaddr & PageMask), FaultNone
	}
	pfn, reclaimed := m.allocFrame()
	t[vpn] = pfn
	m.owners[pfn] = mapping{pid: owner, vpn: vpn}
	m.ref[pfn] = true
	// Kernel pages (and shared text, which the table redirect charges to
	// KernelPID) are pinned: they never enter the reclaim queue, so the
	// reclaimer cannot evict a frame still mapped by every live process.
	if owner != KernelPID {
		m.fifo = append(m.fifo, pfn)
	}
	m.rss[owner]++
	if owner != KernelPID && m.rss[owner] > m.RSSHighwater {
		m.RSSHighwater = m.rss[owner]
	}
	kind = FaultPageAlloc
	m.Allocs++
	if reclaimed {
		kind = FaultReclaim
		m.Reclaims++
	}
	if fiu := m.FramesInUse(); fiu > m.FramesHighwater {
		m.FramesHighwater = fiu
	}
	return FrameBase(pfn) | (vaddr & PageMask), kind
}

// allocFrame returns a free frame, evicting victims under memory pressure —
// a deliberately simple model of paging under pressure (the paper simulates
// a zero-latency disk, so reclaim cost is the kernel code executed, not disk
// time). Below the effective limit it hands out clean frames (free list,
// then the bump pointer); at the limit it consumes reclaimer-evicted frames,
// waking the reclaimer when none are staged.
func (m *Memory) allocFrame() (pfn uint64, reclaimed bool) {
	if m.FramesInUse() >= m.effFrames() {
		// Under a configured (squeezed) limit, refill to the low watermark
		// in one scan; at the physical wall, take exactly one victim.
		batch := 1
		if m.limit > 0 && m.limit < m.frames {
			batch = lowWaterFrames
		}
		m.reclaimBatch(batch)
	}
	// Frames the reclaimer staged are reused before anything clean — they
	// were evicted precisely to serve these allocations.
	if len(m.dirty) > 0 {
		pfn = m.dirty[0]
		m.dirty = m.dirty[1:]
		return pfn, true
	}
	if m.FramesInUse() < m.effFrames() {
		if n := len(m.free); n > 0 {
			pfn = m.free[n-1]
			m.free = m.free[:n-1]
			return pfn, false
		}
		if m.nextFrame < m.frames {
			pfn = m.nextFrame
			m.nextFrame++
			return pfn, false
		}
	}
	// Nothing reclaimable (every mapped frame is pinned): overrun the soft
	// limit if physical room remains, else the machine is truly out of
	// memory.
	m.LimitOverruns++
	if n := len(m.free); n > 0 {
		pfn = m.free[n-1]
		m.free = m.free[:n-1]
		return pfn, false
	}
	if m.nextFrame < m.frames {
		pfn = m.nextFrame
		m.nextFrame++
		return pfn, false
	}
	panic("mem: no frames to reclaim")
}

// reclaimBatch evicts up to want victims: FIFO order with second chance —
// a page whose referenced bit is set since the last pass is spared once
// (bit cleared, page re-queued), the oldest unreferenced page is evicted.
// Evicted frames are staged on the dirty list for allocFrame and recorded
// for the kernel's TLB/cache invalidation.
func (m *Memory) reclaimBatch(want int) {
	// The scan budget covers one full ref-clearing pass plus one eviction
	// pass over the queue as it stands now; re-queued entries past that mean
	// no victim exists.
	budget := 2*(len(m.fifo)-m.fifoHead) + int(m.frames) + lowWaterFrames
	for got := 0; got < want && budget > 0; {
		if m.fifoHead >= len(m.fifo) {
			if !m.compactFIFO() {
				return
			}
		}
		budget--
		m.ReclaimScans++
		victim := m.fifo[m.fifoHead]
		m.fifoHead++
		own := m.owners[victim]
		t := m.tables[own.pid]
		if t == nil {
			continue
		}
		cur, ok := t[own.vpn]
		if !ok || cur != victim {
			continue // stale entry: page was unmapped or remapped
		}
		if m.ref[victim] {
			m.SecondChances++
			m.ref[victim] = false
			m.fifo = append(m.fifo, victim)
			continue
		}
		delete(t, own.vpn)
		if m.rss[own.pid] > 0 {
			m.rss[own.pid]--
		}
		m.dirty = append(m.dirty, victim)
		m.evict = append(m.evict, Eviction{PID: own.pid, VPN: own.vpn, PFN: victim})
		got++
	}
}

// compactFIFO rebuilds the reclaim queue from the live page tables after
// every entry was consumed. Pinned kernel/shared pages stay out; the frame
// list is sorted so the rebuilt queue does not depend on map iteration
// order (the simulation must be deterministic). Reports whether any
// reclaimable page exists.
func (m *Memory) compactFIFO() bool {
	m.fifo = m.fifo[:0]
	m.fifoHead = 0
	for pid, t := range m.tables {
		if pid == KernelPID {
			continue
		}
		for vpn, pfn := range t {
			m.owners[pfn] = mapping{pid: pid, vpn: vpn}
			m.fifo = append(m.fifo, pfn)
		}
	}
	if len(m.fifo) == 0 {
		return false
	}
	slices.Sort(m.fifo)
	return true
}

// Unmap removes the mapping for one page if present (munmap). The frame
// returns to the free list.
func (m *Memory) Unmap(pid uint64, vaddr uint64) bool {
	owner, t := m.table(pid, vaddr)
	vpn := VPN(vaddr)
	pfn, ok := t[vpn]
	if !ok {
		return false
	}
	delete(t, vpn)
	m.free = append(m.free, pfn)
	if m.rss[owner] > 0 {
		m.rss[owner]--
	}
	m.Unmappings++
	return true
}

// ReleaseProcess drops every user-region mapping of a process (exit).
func (m *Memory) ReleaseProcess(pid uint64) int {
	if pid == KernelPID {
		return 0
	}
	t := m.tables[pid]
	// Free frames in sorted frame order: map iteration order is randomized,
	// and the free list feeds later allocations, so an unsorted release
	// would make every post-exit allocation nondeterministic. The frames
	// go straight onto the free list and only the appended tail is sorted.
	start := len(m.free)
	for _, pfn := range t {
		m.free = append(m.free, pfn)
	}
	slices.Sort(m.free[start:])
	clear(t)
	delete(m.rss, pid)
	n := len(m.free) - start
	m.Unmappings += uint64(n)
	return n
}

// MappedPages returns the number of pages mapped for pid (kernel uses
// KernelPID).
func (m *Memory) MappedPages(pid uint64) int { return len(m.tables[pid]) }
