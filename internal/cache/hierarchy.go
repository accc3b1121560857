package cache

import "repro/internal/conflict"

// HierConfig sets the timing parameters of the memory system (defaults
// follow the paper's Table 1).
type HierConfig struct {
	// L1HitLatency is the L1 access time in cycles.
	L1HitLatency int
	// L1FillPenalty is the extra fill time into an L1 (2 in the paper).
	L1FillPenalty int
	// L1L2BusLatency is the L1–L2 bus latency (2 cycles, 256 bits wide).
	L1L2BusLatency int
	// L2Latency is the L2 access latency (20 cycles, fully pipelined).
	L2Latency int
	// MemBusLatency is the memory bus latency (4 cycles, 128 bits wide).
	MemBusLatency int
	// MemLatency is physical memory latency (90 cycles, fully pipelined).
	MemLatency int
	// MSHREntries is the number of outstanding-miss registers per L1 cache
	// and for the L2 (32 each in the paper).
	MSHREntries int
	// StoreBufferEntries is the store buffer capacity (32).
	StoreBufferEntries int
	// MemBusOccupancy is the cycles the memory bus is busy per line
	// transfer (64-byte line over a 128-bit bus = 4 beats).
	MemBusOccupancy int
}

// DefaultHierConfig returns the paper's Table 1 memory-system parameters.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1HitLatency:       1,
		L1FillPenalty:      2,
		L1L2BusLatency:     2,
		L2Latency:          20,
		MemBusLatency:      4,
		MemLatency:         90,
		MSHREntries:        32,
		StoreBufferEntries: 32,
		MemBusOccupancy:    4,
	}
}

// AccessResult reports the outcome of a hierarchy access.
type AccessResult struct {
	// Ready is the cycle at which the data is available.
	Ready uint64
	// L1Miss and L2Miss report which levels missed.
	L1Miss, L2Miss bool
	// Stall is true when the access could not be started because the
	// relevant MSHR is full; the requester must retry.
	Stall bool
}

// mshrFill is one in-flight line fill.
type mshrFill struct {
	la    uint64
	ready uint64
}

// mshr tracks in-flight line fills for one cache level. The table is a small
// fixed-capacity slice (32 entries in the paper) rather than a map: linear
// scans over ≤32 entries beat map hashing on the per-access hot path, and the
// preallocated backing array makes every operation allocation-free. Line
// addresses are unique within the table (reserve overwrites in place, exactly
// as the map-keyed version did).
type mshr struct {
	cap         int
	inflight    []mshrFill
	FullStalls  uint64
	latencyArea uint64 // Σ fill durations, for Little's-law avg outstanding
	fills       uint64
}

func newMSHR(capacity int) *mshr {
	return &mshr{cap: capacity, inflight: make([]mshrFill, 0, capacity)}
}

// purge drops completed fills, compacting in place.
func (m *mshr) purge(now uint64) {
	live := m.inflight[:0]
	for _, f := range m.inflight {
		if f.ready > now {
			live = append(live, f)
		}
	}
	m.inflight = live
}

// lookup returns the in-flight completion time for a line, if any; a
// completed entry is dropped on the way.
func (m *mshr) lookup(la, now uint64) (uint64, bool) {
	for i := range m.inflight {
		if m.inflight[i].la != la {
			continue
		}
		if ready := m.inflight[i].ready; ready > now {
			return ready, true
		}
		m.inflight = append(m.inflight[:i], m.inflight[i+1:]...)
		return 0, false
	}
	return 0, false
}

// reserve allocates an entry; reports false when full. An entry for a line
// already in flight is overwritten (the fill was superseded: its line was
// evicted and re-missed before the fill completed), which — like the
// capacity check running first — mirrors the previous map semantics.
func (m *mshr) reserve(la, now, ready uint64) bool {
	if len(m.inflight) >= m.cap {
		m.purge(now)
		if len(m.inflight) >= m.cap {
			m.FullStalls++
			return false
		}
	}
	m.latencyArea += ready - now
	m.fills++
	for i := range m.inflight {
		if m.inflight[i].la == la {
			m.inflight[i].ready = ready
			return true
		}
	}
	m.inflight = append(m.inflight, mshrFill{la: la, ready: ready})
	return true
}

// Hierarchy couples the three caches with bus and memory timing.
type Hierarchy struct {
	Cfg HierConfig //detlint:ignore snapshotcomplete configuration fixed at construction
	L1I *Cache
	L1D *Cache
	L2  *Cache

	mshrI, mshrD, mshrL2 *mshr

	l2NextFree  uint64 // L2 is pipelined at 1 access/cycle
	memNextFree uint64 // memory bus serialization

	// OmitPrivileged, when true, makes privileged (kernel/PAL) accesses
	// complete as ideal hits without touching any cache state. It
	// implements the paper's Table 9 "Apache only" measurement, where OS
	// references to the hardware structures are omitted.
	OmitPrivileged bool //detlint:ignore snapshotcomplete configuration set at assembly, not mutable simulation state

	// BusTransactions counts memory-bus line transfers (the paper's DMA
	// discussion is phrased in bus transactions).
	BusTransactions uint64
}

// NewHierarchy builds the paper's memory system: 128 KB 2-way L1I and L1D,
// 16 MB direct-mapped L2, 64-byte lines throughout.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	return &Hierarchy{
		Cfg:    cfg,
		L1I:    New(Config{Name: "L1I", SizeBytes: 128 << 10, Ways: 2, LineShift: 6}),
		L1D:    New(Config{Name: "L1D", SizeBytes: 128 << 10, Ways: 2, LineShift: 6}),
		L2:     New(Config{Name: "L2", SizeBytes: 16 << 20, Ways: 1, LineShift: 6}),
		mshrI:  newMSHR(cfg.MSHREntries),
		mshrD:  newMSHR(cfg.MSHREntries),
		mshrL2: newMSHR(cfg.MSHREntries),
	}
}

// AccessI performs an instruction fetch of the line containing paddr.
//
//detlint:hot per-fetch I-cache probe, called every cycle from Engine.fetch
func (h *Hierarchy) AccessI(paddr uint64, ag conflict.Agent, now uint64) AccessResult {
	return h.access(h.L1I, h.mshrI, paddr, ag, false, now, false)
}

// AccessD performs a data access.
//
//detlint:hot per-issue D-cache probe, called from Engine.memIssue
func (h *Hierarchy) AccessD(paddr uint64, ag conflict.Agent, write bool, now uint64) AccessResult {
	return h.access(h.L1D, h.mshrD, paddr, ag, write, now, false)
}

// WarmI is the functional-warming instruction fetch used by sampled
// fast-forward: it drives the full tag, LRU, sharing and miss-cause state
// of the real caches but skips the MSHR, bus and latency bookkeeping. That
// transient timing state decays within roughly one miss latency (~110
// cycles), long before the next detailed window's warmup opens, whereas
// the tags being warmed persist — so omitting it changes nothing a
// measurement window can observe and makes fast-forward markedly cheaper.
func (h *Hierarchy) WarmI(paddr uint64, ag conflict.Agent) {
	if h.OmitPrivileged && ag.Priv {
		return
	}
	if !h.L1I.Access(paddr, ag, false) {
		h.L2.Access(paddr, ag, false)
	}
}

// WarmD is the data-side counterpart of WarmI; write warms the line the
// way the detailed path's store-buffer drain would.
func (h *Hierarchy) WarmD(paddr uint64, ag conflict.Agent, write bool) {
	if h.OmitPrivileged && ag.Priv {
		return
	}
	if !h.L1D.Access(paddr, ag, write) {
		h.L2.Access(paddr, ag, write)
	}
}

// Probe reports, without side effects, which levels of the hierarchy hold
// the line containing paddr (instruction residency is L1I, data residency
// L1D; either is backed by the shared L2). No LRU, tracker, or counter
// state changes: Probe is safe to call from audits and invariant checks at
// any frequency.
//
//detlint:hot read-only residency check, usable from per-cycle audit loops
func (h *Hierarchy) Probe(paddr uint64) (l1i, l1d, l2 bool) {
	return h.L1I.Probe(paddr), h.L1D.Probe(paddr), h.L2.Probe(paddr)
}

// DrainStore performs the cache write of a store leaving the store buffer.
// Unlike AccessD it never stalls: the store buffer is the structure that
// holds the data, so the write proceeds even when the MSHRs are saturated
// (the fill is still timed through them).
//
//detlint:hot per-retired-store cache write, called from Engine.retire
func (h *Hierarchy) DrainStore(paddr uint64, ag conflict.Agent, now uint64) AccessResult {
	return h.access(h.L1D, h.mshrD, paddr, ag, true, now, true)
}

func (h *Hierarchy) access(l1 *Cache, m *mshr, paddr uint64, ag conflict.Agent, write bool, now uint64, noStall bool) AccessResult {
	if h.OmitPrivileged && ag.Priv {
		return AccessResult{Ready: now + uint64(h.Cfg.L1HitLatency)}
	}
	la := l1.LineAddr(paddr)
	// A miss needs an MSHR at each level it will traverse; if none is
	// available the probe stalls *before* perturbing any tag or counter
	// (otherwise the retry would find an allocated tag with no fill in
	// flight and complete instantly).
	if !noStall && !l1.Probe(paddr) {
		m.purge(now)
		if len(m.inflight) >= m.cap {
			m.FullStalls++
			return AccessResult{Stall: true, L1Miss: true}
		}
		if !h.L2.Probe(paddr) {
			h.mshrL2.purge(now)
			if len(h.mshrL2.inflight) >= h.mshrL2.cap {
				h.mshrL2.FullStalls++
				return AccessResult{Stall: true, L1Miss: true}
			}
		}
	}
	if l1.Access(paddr, ag, write) {
		ready := now + uint64(h.Cfg.L1HitLatency)
		// A tag hit on a line whose fill is still in flight completes when
		// the fill does (MSHR merge).
		if inflight, ok := m.lookup(la, now); ok {
			ready = inflight
		}
		return AccessResult{Ready: ready}
	}
	// Genuine L1 miss; MSHR availability was checked before the probe.
	start := now + uint64(h.Cfg.L1L2BusLatency)
	if start < h.l2NextFree {
		start = h.l2NextFree
	}
	h.l2NextFree = start + 1 // L2 accepts one access per cycle

	res := AccessResult{L1Miss: true}
	var ready uint64
	if h.L2.Access(paddr, ag, write) {
		ready = start + uint64(h.Cfg.L2Latency)
		if inflight, ok := h.mshrL2.lookup(la, now); ok && inflight > ready {
			ready = inflight
		}
	} else {
		res.L2Miss = true
		busAt := start + uint64(h.Cfg.L2Latency)
		if busAt < h.memNextFree {
			busAt = h.memNextFree
		}
		h.memNextFree = busAt + uint64(h.Cfg.MemBusOccupancy)
		h.BusTransactions++
		ready = busAt + uint64(h.Cfg.MemBusLatency) + uint64(h.Cfg.MemLatency)
		if inflight, ok := h.mshrL2.lookup(la, now); ok {
			// Merge with an in-flight memory fill of the same line.
			ready = inflight
		} else {
			h.mshrL2.reserve(la, now, ready)
		}
	}
	ready += uint64(h.Cfg.L1FillPenalty)
	m.reserve(la, now, ready)
	res.Ready = ready
	return res
}

// DMA models n direct-memory-access line transfers occupying the memory
// bus (the paper executes disk DMA but omits network DMA, arguing the bus
// delay stays insignificant — the ablation-dma experiment tests exactly
// that claim).
func (h *Hierarchy) DMA(n int, now uint64) {
	busAt := now
	if busAt < h.memNextFree {
		busAt = h.memNextFree
	}
	h.memNextFree = busAt + uint64(n*h.Cfg.MemBusOccupancy)
	h.BusTransactions += uint64(n)
}

// AvgOutstanding returns the average number of in-flight misses for the
// given cache level ("i", "d" or "l2") over total cycles, via Little's law.
func (h *Hierarchy) AvgOutstanding(level string, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	var m *mshr
	switch level {
	case "i":
		m = h.mshrI
	case "d":
		m = h.mshrD
	case "l2":
		m = h.mshrL2
	default:
		return 0
	}
	return float64(m.latencyArea) / float64(cycles)
}

// MSHRCounts returns, per level (I, D, L2), the accesses rejected because
// the level's MSHR was full and the fills it reserved.
func (h *Hierarchy) MSHRCounts() (fullStalls, fills [3]uint64) {
	for i, m := range [3]*mshr{h.mshrI, h.mshrD, h.mshrL2} {
		fullStalls[i], fills[i] = m.FullStalls, m.fills
	}
	return fullStalls, fills
}

// StoreBuffer models the 32-entry store buffer: retired stores enter the
// buffer and drain to the data cache at one per cycle; a full buffer stalls
// retirement.
type StoreBuffer struct {
	capacity int
	// entries holds the drain-completion cycle of each buffered store.
	entries []uint64
	// FullStalls counts stores rejected because the buffer was full.
	FullStalls uint64
	// Pushed counts stores accepted into the buffer.
	Pushed uint64
	// Drained counts stores observed to have left the buffer (updated
	// lazily, on later pushes).
	Drained uint64
}

// NewStoreBuffer returns a buffer with the given capacity.
func NewStoreBuffer(capacity int) *StoreBuffer {
	return &StoreBuffer{capacity: capacity}
}

// Push inserts a retired store at cycle now; ok is false when the buffer is
// full (the store must retry next cycle). drainAt is when the cache write
// will be performed by the caller.
//
//detlint:hot per-retired-store buffer insert, called from Engine.retire
func (s *StoreBuffer) Push(now uint64) (drainAt uint64, ok bool) {
	// Lazily drain completed entries (one per cycle drain rate is modeled
	// by spacing completion times one cycle apart).
	live := s.entries[:0]
	for _, t := range s.entries {
		if t > now {
			live = append(live, t)
		} else {
			s.Drained++
		}
	}
	s.entries = live
	if len(s.entries) >= s.capacity {
		s.FullStalls++
		return 0, false
	}
	drainAt = now + 1
	if n := len(s.entries); n > 0 && s.entries[n-1]+1 > drainAt {
		drainAt = s.entries[n-1] + 1
	}
	s.entries = append(s.entries, drainAt)
	s.Pushed++
	return drainAt, true
}

// Occupancy returns the number of buffered stores at cycle now.
func (s *StoreBuffer) Occupancy(now uint64) int {
	n := 0
	for _, t := range s.entries {
		if t > now {
			n++
		}
	}
	return n
}
