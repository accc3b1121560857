// Package report provides windowed measurement and text rendering for the
// reproduction's experiments. A Snapshot copies every counter of a running
// simulation; Delta(a, b) gives the counters for the window between two
// snapshots — which is how the paper separates program start-up from steady
// state (Figure 1, Table 2) and how benches measure warmed steady-state
// behavior rather than cold-start transients.
package report

import (
	"fmt"
	"strings"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/stats"
	"repro/internal/sys"
)

// StructStats is the per-hardware-structure counter set.
type StructStats struct {
	Accesses [2]uint64
	Misses   [2]uint64
	Causes   conflict.Matrix
	Shared   conflict.Sharing
	Invalid  uint64
}

// MissRate returns the miss percentage for one privilege class.
func (s StructStats) MissRate(priv bool) float64 {
	i := bidx(priv)
	if s.Accesses[i] == 0 {
		return 0
	}
	return 100 * float64(s.Misses[i]) / float64(s.Accesses[i])
}

// MissRateOverall returns the total miss percentage.
func (s StructStats) MissRateOverall() float64 {
	a := s.Accesses[0] + s.Accesses[1]
	if a == 0 {
		return 0
	}
	return 100 * float64(s.Misses[0]+s.Misses[1]) / float64(a)
}

// TotalMisses returns all misses.
func (s StructStats) TotalMisses() uint64 { return s.Misses[0] + s.Misses[1] }

// AvoidedPct returns Table 8's statistic: misses avoided thanks to a fill by
// fillerPriv code, as a percentage of the structure's total misses, for
// accessors of accPriv.
func (s StructStats) AvoidedPct(accPriv, fillerPriv bool) float64 {
	t := s.TotalMisses()
	if t == 0 {
		return 0
	}
	return 100 * float64(s.Shared.Avoided[bidx(accPriv)][bidx(fillerPriv)]) / float64(t)
}

// Snapshot is a full copy of a simulation's counters.
type Snapshot struct {
	Cycles  uint64
	Metrics pipeline.Metrics
	CycleAt stats.Cycles
	Mix     stats.Mix

	L1I, L1D, L2, ITLB, DTLB, BTB StructStats

	BpLookups     [2]uint64
	BpMispredicts [2]uint64

	OutstandingArea [3]uint64 // I, D, L2 (Little's-law numerators)

	// Memory-system counters surfaced by the counterflow audit (previously
	// counted but unreported).
	Writebacks      [3]uint64 // I, D, L2 dirty evictions
	BusTransactions uint64
	SBPushed        uint64
	SBDrained       uint64
	SBFullStalls    uint64

	// Kernel-side counters.
	ContextSwitches uint64
	Preemptions     uint64
	SyscallCount    [sys.NumSyscalls]uint64
	VMFaults        [3]uint64
	MemAllocs       uint64
	MemRefills      uint64
	MemReclaims     uint64
	MemUnmaps       uint64
	ASNRecycles     uint64
	ClockInterrupts uint64
	NetInterrupts   uint64
	IdleScheduled   uint64
	SvcInstByRes    [5]uint64
	LockContentions uint64
	SpinInsts       uint64
	DiskReads       uint64
	NICDelivered    uint64
	NICDropped      uint64

	// Network-side counters (zero for SPECInt).
	NetRequests  uint64
	NetCompleted uint64
	NetBytes     uint64
	NetPerClass  [4]uint64

	// Resilience counters (all zero with fault injection off).
	NetRetransmits  uint64
	NetAborted      uint64
	NetResets       uint64
	FramesDropped   uint64
	FramesCorrupted uint64
	FramesDelayed   uint64
	WorkerCrashes   uint64
	WorkerRespawns  uint64
	// FaultCrashInjections is the injector-side count of scheduled worker
	// deaths (WorkerCrashes is the kernel-side count of deaths taken).
	FaultCrashInjections uint64

	// Overload counters (all zero unless the accept backlog binds, the
	// idle reaper runs, or the overload fault domain is on).
	ConnsRefused    uint64
	ReapedIdle      uint64
	ReapedSlowloris uint64
	// Latency is the end-to-end request latency histogram in network
	// ticks (populated only under the overload fault domain).
	Latency stats.Hist

	// Resource-exhaustion counters (all zero unless a finite pool or the
	// frame limit binds) and demand gauges. Gauges are instantaneous — in a
	// Delta they report window b's value, not a difference.
	MemReclaimScans  uint64
	MemSecondChances uint64
	MemLimitOverruns uint64
	SockPoolRejects  uint64
	MbufDrops        uint64
	FDRejects        uint64
	ForkRejects      uint64
	Squeezes         uint64
	MemFrameLimit    uint64 `report:"gauge"` // gauge
	MemRSSHighwater  uint64 `report:"gauge"` // gauge
	FramesHighwater  uint64 `report:"gauge"` // gauge
	SockHighwater    int    `report:"gauge"` // gauge
	MbufHighwater    int    `report:"gauge"` // gauge

	// Sampling holds the sampled-run estimators (Enabled=false on full-detail
	// runs; everything else zero then).
	Sampling pipeline.SampleStats
}

// Take captures all counters of sim.
func Take(sim *core.Simulator) Snapshot {
	e := sim.Engine
	k := sim.Kernel
	grab := func(acc, miss [2]uint64, causes conflict.Matrix, shared conflict.Sharing, inval uint64) StructStats {
		return StructStats{Accesses: acc, Misses: miss, Causes: causes, Shared: shared, Invalid: inval}
	}
	s := Snapshot{
		Cycles:  e.Metrics.Cycles,
		Metrics: e.Metrics,
		CycleAt: e.Cycles,
		Mix:     e.Mix,
		L1I:     grab(e.Hier.L1I.Accesses, e.Hier.L1I.Misses, e.Hier.L1I.Causes, e.Hier.L1I.Shared, e.Hier.L1I.Invalidations),
		L1D:     grab(e.Hier.L1D.Accesses, e.Hier.L1D.Misses, e.Hier.L1D.Causes, e.Hier.L1D.Shared, e.Hier.L1D.Invalidations),
		L2:      grab(e.Hier.L2.Accesses, e.Hier.L2.Misses, e.Hier.L2.Causes, e.Hier.L2.Shared, e.Hier.L2.Invalidations),
		ITLB:    grab(e.ITLB.Accesses, e.ITLB.Misses, e.ITLB.Causes, e.ITLB.Shared, e.ITLB.Invalidations),
		DTLB:    grab(e.DTLB.Accesses, e.DTLB.Misses, e.DTLB.Causes, e.DTLB.Shared, e.DTLB.Invalidations),
		BTB: grab(e.Pred.BTBLookups, e.Pred.BTBMisses, e.Pred.BTBCauses,
			conflict.Sharing{}, 0),
		BpLookups:     e.Pred.Lookups,
		BpMispredicts: e.Pred.Mispredicts,

		ContextSwitches: k.ContextSwitches,
		Preemptions:     k.Preemptions,
		SyscallCount:    k.SyscallCount,
		VMFaults:        k.VMFaults,
		MemAllocs:       k.Mem.Allocs,
		MemRefills:      k.Mem.Refills,
		MemReclaims:     k.Mem.Reclaims,
		MemUnmaps:       k.Mem.Unmappings,
		ASNRecycles:     k.ASNRecycles,
		ClockInterrupts: k.ClockInterrupts,
		NetInterrupts:   k.NetInterrupts,
	}
	s.OutstandingArea = [3]uint64{
		uint64(e.Hier.AvgOutstanding("i", 1)),
		uint64(e.Hier.AvgOutstanding("d", 1)),
		uint64(e.Hier.AvgOutstanding("l2", 1)),
	}
	s.Writebacks = [3]uint64{e.Hier.L1I.Writebacks, e.Hier.L1D.Writebacks, e.Hier.L2.Writebacks}
	s.BusTransactions = e.Hier.BusTransactions
	s.SBPushed = e.SB.Pushed
	s.SBDrained = e.SB.Drained
	s.SBFullStalls = e.SB.FullStalls
	s.IdleScheduled = k.IdleScheduled
	s.SvcInstByRes = k.SvcInstByRes
	s.LockContentions = k.LockContentions
	s.SpinInsts = k.SpinInsts
	s.DiskReads = k.DiskReads
	s.NICDelivered, s.NICDropped = k.NICStats()
	if sim.Net != nil {
		s.NetRequests = sim.Net.Requests
		s.NetCompleted = sim.Net.Completed
		s.NetBytes = sim.Net.BytesServed
		s.NetRetransmits = sim.Net.Retransmits
		s.NetAborted = sim.Net.Aborted
		s.NetResets = sim.Net.Resets
		s.NetPerClass = sim.Net.PerClass
		s.Latency = sim.Net.Latency
	}
	s.WorkerCrashes = k.WorkerCrashes
	s.WorkerRespawns = k.WorkerRespawns
	s.ConnsRefused = k.ConnsRefused
	s.ReapedIdle = k.ReapedIdle
	s.ReapedSlowloris = k.ReapedSlowloris
	s.MemReclaimScans = k.Mem.ReclaimScans
	s.MemSecondChances = k.Mem.SecondChances
	s.MemLimitOverruns = k.Mem.LimitOverruns
	s.SockPoolRejects = k.SockPoolRejects
	s.MbufDrops = k.MbufDrops
	s.FDRejects = k.FDRejects
	s.ForkRejects = k.ForkRejects
	s.MemFrameLimit = k.Mem.FrameLimit()
	s.MemRSSHighwater = k.Mem.RSSHighwater
	s.FramesHighwater = k.Mem.FramesHighwater
	s.SockHighwater = k.SockHighwater
	s.MbufHighwater = k.MbufHighwater
	s.Sampling = e.SampleStats()
	if sim.Faults != nil {
		s.FramesDropped = sim.Faults.DroppedToServer + sim.Faults.DroppedToClient
		s.FramesCorrupted = sim.Faults.Corrupted
		s.FramesDelayed = sim.Faults.Delayed
		s.Squeezes = sim.Faults.Squeezes
		s.FaultCrashInjections = sim.Faults.Crashes
	}
	return s
}

// IPC returns instructions per cycle in the window.
func (s Snapshot) IPC() float64 { return s.Metrics.IPC() }

// BpMispredictRate returns the branch misprediction percentage (overall, or
// for one privilege class via BpMispredictRateFor).
func (s Snapshot) BpMispredictRate() float64 {
	l := s.BpLookups[0] + s.BpLookups[1]
	if l == 0 {
		return 0
	}
	return 100 * float64(s.BpMispredicts[0]+s.BpMispredicts[1]) / float64(l)
}

// BpMispredictRateFor returns the misprediction rate for one privilege class.
func (s Snapshot) BpMispredictRateFor(priv bool) float64 {
	i := bidx(priv)
	if s.BpLookups[i] == 0 {
		return 0
	}
	return 100 * float64(s.BpMispredicts[i]) / float64(s.BpLookups[i])
}

// AvgOutstanding returns the average in-flight misses for level 0=I,1=D,2=L2.
func (s Snapshot) AvgOutstanding(level int) float64 {
	if s.Metrics.Cycles == 0 {
		return 0
	}
	return float64(s.OutstandingArea[level]) / float64(s.Metrics.Cycles)
}

func bidx(priv bool) int {
	if priv {
		return 1
	}
	return 0
}

// ------------------------------------------------------------- text tables

// Table is a simple fixed-width text table builder.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(cols ...string) *Table { return &Table{header: cols} }

// Row appends a row; values are formatted with %v (floats with %.1f / %.2f
// via F1/F2 helpers).
func (t *Table) Row(vals ...string) { t.rows = append(t.rows, vals) }

// F1 formats a float with one decimal.
func F1(v float64) string { return fmt.Sprintf("%.1f", v) }

// F2 formats a float with two decimals.
func F2(v float64) string { return fmt.Sprintf("%.2f", v) }

// I formats an integer.
func I(v uint64) string { return fmt.Sprintf("%d", v) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
