// Sampled simulation: deterministic functional fast-forward alternating
// with full-detail measurement windows (SMARTS-style).
//
// In fast-forward the engine drains the kernel feed with no
// rename/queues/issue modeling, but every instruction still drives the real
// microarchitectural state: instruction fetches go through the ITLB and L1I,
// branches train the shared predictor, and loads/stores translate through
// the DTLB and access the L1D/L2 — so when a detail window opens, caches,
// TLBs and branch tables are warm. The drain rate is paced at the IPC the
// detail windows measure (capped at commit width): an unpaced drain on a
// closed-loop workload like SPECWeb would execute several times the
// instructions per cycle the detailed machine can retire — simulated time
// would race ahead of program progress, skewing every per-10ms interaction
// and making fast-forward cycles *more* expensive than detailed ones. Detail windows run the unmodified
// cycle-accurate step() and contribute one observation per window to the
// per-metric Series estimators; fast-forward cycles contribute nothing to
// cycle attribution, so windowed percentages (kernel/user/idle shares) read
// directly as the sampled estimate.
//
// The schedule is a fixed period, with the warmup+detail block placed at a
// seeded pseudo-random offset inside each period (splitmix64 on the
// configured seed). The jitter decorrelates windows from the 10 ms interrupt
// tick without perturbing the period, and is pure engine state: same seed ⇒
// bit-identical schedule, on any host and any worker count.
package pipeline

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/sys"
)

// SampleConfig parameterizes sampling mode. All values are cycles.
type SampleConfig struct {
	// Period is the schedule period: each period contains one warmup+detail
	// block, the rest is fast-forward.
	Period uint64
	// DetailWindow is the length of the full-detail measurement window.
	DetailWindow uint64
	// Warmup is the full-detail run-in before each measurement window; it
	// refills pipeline state (ROB, queues, in-flight misses) that the
	// functional path does not model, and is excluded from the estimators.
	Warmup uint64
	// Seed drives the per-period placement jitter.
	Seed uint64
}

// samplePhase is the sampling FSM state. sampleOff must be the zero value, so
// a fresh engine runs in full detail.
type samplePhase uint8

const (
	sampleOff     samplePhase = iota // sampling disabled (full detail)
	sampleFFPre                      // fast-forward before the detail block
	sampleWarm                       // detailed warmup (not measured)
	sampleMeasure                    // detailed measurement window
	sampleFFPost                     // fast-forward after the detail block
)

// sampler is the sampling FSM embedded in the engine.
type sampler struct {
	cfg   SampleConfig
	phase samplePhase
	// left is cycles remaining in the current phase; post is the
	// fast-forward length scheduled after the current period's detail block.
	left, post uint64
	// rng is the splitmix64 state behind the placement jitter.
	rng uint64
	// pace is the fast-forward drain rate in instructions per cycle, as
	// paceFrac-bit fixed point; acc accumulates the fractional remainder
	// across cycles. pace starts at commit width and tracks the IPC each
	// measurement window observes, so fast-forwarded simulated time
	// advances program progress at the rate the detailed machine would.
	pace, acc uint64

	windows      uint64 // completed measurement windows
	ffCycles     uint64 // cycles spent in fast-forward
	detailCycles uint64 // cycles spent in detail (warmup + measure)

	// atWindow is set when the FSM opens a warmup+detail block and cleared
	// the moment the next cycle executes, so a checkpoint-library builder
	// stepping with RunToNextWindow can recognize the exact window-start
	// boundary (phase == sampleWarm, zero cycles of warmup executed).
	atWindow bool
	// libBuild switches the engine into library-generation mode: the FSM
	// still walks the identical window schedule (same RNG draws, same
	// placement), but warmup and measurement phases execute functionally
	// and closed windows contribute no observations — the detail work is
	// deferred to the per-window restore pass.
	libBuild bool

	// base* snapshot the counters at measurement-window open, so window
	// observations are deltas.
	baseCycles     stats.Cycles
	baseRetired    uint64
	baseCycleCount uint64

	// Per-window observation series (one data point per completed window).
	ipc, kernelPct, userPct, idlePct stats.Series
}

// paceFrac is the number of fractional bits in sampler.pace/acc.
const paceFrac = 8

// detailed reports whether the current phase runs the cycle-accurate step.
// In library-build mode every phase executes functionally: the schedule (and
// therefore the RNG stream and window placement) is identical, but the warmup
// and measurement cycles are deferred to the restore pass.
func (s *sampler) detailed() bool {
	return !s.libBuild && (s.phase == sampleWarm || s.phase == sampleMeasure)
}

// nextRand is splitmix64: deterministic, allocation-free, engine-local.
func (s *sampler) nextRand() uint64 {
	s.rng += 0x9e3779b97f4a7c15
	z := s.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sync syncs the sampling FSM.
func (s *sampler) Sync(c *checkpoint.Codec) {
	for _, p := range [...]*uint64{&s.cfg.Period, &s.cfg.DetailWindow, &s.cfg.Warmup, &s.cfg.Seed} {
		c.Uint(p)
	}
	checkpoint.U(c, &s.phase)
	for _, p := range [...]*uint64{&s.left, &s.post, &s.rng, &s.pace, &s.acc, &s.windows, &s.ffCycles,
		&s.detailCycles, &s.baseRetired, &s.baseCycleCount} {
		c.Uint(p)
	}
	s.baseCycles.Sync(c)
	s.ipc.Sync(c)
	s.kernelPct.Sync(c)
	s.userPct.Sync(c)
	s.idlePct.Sync(c)
	c.Bool(&s.atWindow)
	c.Bool(&s.libBuild)
}

// SampleStats is the exported view of the sampling estimators, for reports.
type SampleStats struct {
	// Enabled reports whether the engine runs in sampling mode.
	Enabled bool
	// Windows is the number of completed measurement windows.
	Windows uint64
	// FFCycles and DetailCycles split total cycles by execution mode.
	FFCycles, DetailCycles uint64
	// IPC, KernelPct, UserPct, IdlePct hold one observation per window.
	IPC, KernelPct, UserPct, IdlePct stats.Series
}

// SampleStats returns the current sampling estimators.
func (e *Engine) SampleStats() SampleStats {
	s := &e.smp
	return SampleStats{
		Enabled:      s.phase != sampleOff,
		Windows:      s.windows,
		FFCycles:     s.ffCycles,
		DetailCycles: s.detailCycles,
		IPC:          s.ipc,
		KernelPct:    s.kernelPct,
		UserPct:      s.userPct,
		IdlePct:      s.idlePct,
	}
}

// EnableSampling switches the engine into sampling mode. It panics on an
// invalid configuration (core.Options.Validate rejects these earlier with a
// friendlier message). Safe on a freshly built engine; enabling drains any
// in-flight state to a functional boundary first.
func (e *Engine) EnableSampling(cfg SampleConfig) {
	if cfg.Period == 0 || cfg.DetailWindow == 0 {
		panic("pipeline: sampling needs Period > 0 and DetailWindow > 0")
	}
	if cfg.Warmup+cfg.DetailWindow >= cfg.Period {
		panic(fmt.Sprintf("pipeline: sampling warmup %d + window %d must leave fast-forward room in period %d",
			cfg.Warmup, cfg.DetailWindow, cfg.Period))
	}
	// Until the first window measures real IPC, fast-forward drains at
	// commit width (the machine's upper bound).
	e.smp = sampler{cfg: cfg, rng: cfg.Seed, pace: uint64(e.Cfg.RetireWidth) << paceFrac}
	e.drainToFunctional()
	// The first period opens with its detail block instead of a jittered
	// fast-forward lead: the window calibrates the pace to the workload's
	// measured IPC before any significant fast-forwarding happens.
	s := &e.smp
	s.phase = sampleWarm
	s.left = cfg.Warmup
	s.post = cfg.Period - cfg.Warmup - cfg.DetailWindow
	s.atWindow = true
}

// SetSampleLibraryBuild toggles library-generation mode (see sampler.libBuild).
// The engine must already be in sampling mode.
func (e *Engine) SetSampleLibraryBuild(on bool) {
	if e.smp.phase == sampleOff {
		panic("pipeline: SetSampleLibraryBuild requires sampling mode")
	}
	e.smp.libBuild = on
}

// AtWindowStart reports whether the engine sits exactly at the opening
// boundary of a warmup+detail block: the next detailed cycle is the first
// warmup cycle of the window. This is the point a checkpoint-library builder
// snapshots.
func (e *Engine) AtWindowStart() bool {
	return e.smp.atWindow
}

// SampleWindow returns the configured warmup and detail-window lengths, in
// cycles. It panics when sampling is off.
func (e *Engine) SampleWindow() (warmup, detail uint64) {
	if e.smp.phase == sampleOff {
		panic("pipeline: SampleWindow requires sampling mode")
	}
	return e.smp.cfg.Warmup, e.smp.cfg.DetailWindow
}

// RunToNextWindow advances the engine by at most max cycles, stopping early
// at the opening boundary of the next warmup+detail block. It returns the
// number of cycles actually executed and whether the engine stopped at a
// window boundary (false means the cycle budget ran out first). Intended for
// library generation: the caller checkpoints at each true return.
func (e *Engine) RunToNextWindow(max uint64) (ran uint64, atWindow bool) {
	if e.smp.phase == sampleOff {
		panic("pipeline: RunToNextWindow requires sampling mode")
	}
	ran = e.runSampled(max, true)
	return ran, e.smp.atWindow
}

// runSampled is the sampling-mode Run loop: each cycle runs either the
// unmodified detailed step or one fast-forward cycle, per the FSM. With
// toWindow it stops before the first cycle of the next window that opens
// and returns the cycles it ran. Phase transitions at a Run boundary are
// applied eagerly so a window that closed on the last cycle is already
// folded into the estimators when the caller snapshots — the state is
// identical to advancing lazily on the next Run.
func (e *Engine) runSampled(n uint64, toWindow bool) uint64 {
	if toWindow {
		e.smp.atWindow = false // move on from a window start the engine sits at
	}
	for i := uint64(0); i < n; i++ {
		for e.smp.left == 0 {
			e.sampleAdvance()
		}
		if e.smp.atWindow {
			if toWindow {
				return i
			}
			e.smp.atWindow = false
		}
		e.smp.left--
		if e.smp.detailed() {
			e.step()
			e.smp.detailCycles++
		} else {
			e.ffStep()
			e.smp.ffCycles++
		}
	}
	for e.smp.left == 0 {
		e.sampleAdvance()
	}
	return n
}

// sampleAdvance moves the FSM to the next phase. The chain always
// terminates: the measurement window has nonzero length.
func (e *Engine) sampleAdvance() {
	s := &e.smp
	switch s.phase {
	case sampleFFPre:
		s.phase = sampleWarm
		s.left = s.cfg.Warmup
		s.atWindow = true
	case sampleWarm:
		s.phase = sampleMeasure
		s.left = s.cfg.DetailWindow
		s.baseRetired = e.Metrics.Retired
		s.baseCycleCount = e.Metrics.Cycles
		s.baseCycles = e.Cycles
	case sampleMeasure:
		e.endWindow()
		e.drainToFunctional()
		s.phase = sampleFFPost
		s.left = s.post
	case sampleFFPost:
		e.schedulePeriod()
	default:
		panic("pipeline: sampleAdvance with sampling disabled")
	}
}

// schedulePeriod starts a new period: the warmup+detail block lands at a
// jittered offset, the remaining fast-forward budget is split around it.
func (e *Engine) schedulePeriod() {
	s := &e.smp
	ff := s.cfg.Period - s.cfg.Warmup - s.cfg.DetailWindow
	pre := s.nextRand() % (ff + 1)
	s.phase = sampleFFPre
	s.left = pre
	s.post = ff - pre
}

// endWindow folds the just-closed measurement window into the estimators.
// Library-build runs skip the fold entirely: their windows executed
// functionally, so there is no detailed observation to record and the pace
// stays at its current value (the restore pass re-runs each window in full
// detail from the checkpointed state).
func (e *Engine) endWindow() {
	s := &e.smp
	if s.libBuild {
		return
	}
	cycles := e.Metrics.Cycles - s.baseCycleCount
	if cycles == 0 {
		return
	}
	ipc := float64(e.Metrics.Retired-s.baseRetired) / float64(cycles)
	s.ipc.Add(ipc)
	// Re-pace fast-forward at the measured IPC: at least half an
	// instruction per cycle (so a near-idle window cannot stall program
	// progress), at most commit width.
	p := uint64(ipc*(1<<paceFrac) + 0.5)
	if min := uint64(1) << (paceFrac - 1); p < min {
		p = min
	}
	if max := uint64(e.Cfg.RetireWidth) << paceFrac; p > max {
		p = max
	}
	s.pace = p
	d := e.Cycles.Sub(&s.baseCycles)
	s.kernelPct.Add(d.KernelPct())
	s.userPct.Add(d.PctMode(isa.User))
	s.idlePct.Add(d.PctCat(sys.CatIdle))
	s.windows++
}

// drainToFunctional squashes all in-flight state so the functional path can
// take over: per context, fetch rewinds to the oldest unretired correct-path
// instruction (exactly the interrupt-redirect rule), then the completion
// heap and issue queues are emptied. Squashed instructions were never
// Retired, so the feed replays them functionally — nothing is lost.
func (e *Engine) drainToFunctional() {
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		idx := c.fetchIdx
		for i := 0; i < c.sz; i++ {
			if u := c.robAt(i); !u.wrongPath {
				idx = u.idx
				break
			}
		}
		e.squashAll(c)
		c.fetchIdx = idx
		c.wrong = nil
		c.pendingILine = ^uint64(0)
	}
	e.events = e.events[:0]
	e.resetQueues()
}

// ffTrapGuard caps consecutive non-retiring feed interactions (trap
// splices) per context per fast-forward cycle; a genuine trap storm is a
// kernel bug the detailed path's watchdog would also trip on, and the guard
// keeps a single ffStep call finite regardless.
const ffTrapGuard = 16

// ffStep is one functional fast-forward cycle: interrupt delivery, then the
// paced instruction budget drained across the contexts in the same
// round-robin order the detailed retire stage uses. No cycle attribution
// happens here — percentages over a sampled run thereby estimate the
// detail-window population, not the fast-forwarded one.
//
//detlint:hot per-cycle fast-forward step: TestFastForwardZeroAlloc pins 0 allocs/op
func (e *Engine) ffStep() {
	for _, ctx := range e.Feed.Cycle(e.now) {
		// Nothing is in flight, so interrupt delivery needs no squash: the
		// handler splices at the current fetch position.
		e.Feed.Trap(ctx, e.ctxs[ctx].fetchIdx, nil, TrapInterrupt, 0)
		e.Metrics.Interrupts++
	}
	s := &e.smp
	s.acc += s.pace
	budget := int(s.acc >> paceFrac)
	s.acc &= 1<<paceFrac - 1
	n := e.Cfg.Contexts
	for k := 0; k < n && budget > 0; k++ {
		ctx := (e.rrRetire + k) % n
		c := &e.ctxs[ctx]
		stalls := 0
		for budget > 0 {
			progressed, retired := e.ffExec(ctx, c)
			if !progressed {
				break
			}
			if retired {
				budget--
				stalls = 0
			} else {
				stalls++
				if stalls >= ffTrapGuard {
					break
				}
			}
		}
	}
	e.rrRetire = (e.rrRetire + 1) % n
	e.Metrics.Cycles++
	e.now++
}

// ffExec functionally executes the next instruction of one context:
// translate and touch the I-side once per cache line, train the branch
// predictor, translate and touch the D-side, then commit to the feed.
// progressed=false means the context has nothing to execute this cycle;
// retired=false with progressed=true means a trap handler was spliced (the
// handler's instructions execute on the following iterations).
func (e *Engine) ffExec(ctx int, c *ctxState) (progressed, retired bool) {
	// fin points into the feed's buffer: nothing below moves the buffer
	// except a trap splice, which gets a copy, and Retired, which reads
	// the instruction before it advances the buffer.
	span := e.Feed.Span(ctx, c.fetchIdx)
	if len(span) == 0 {
		return false, false
	}
	fin := &span[0]
	ag := agentOf(fin)

	// Instruction-side warming, once per line (sequential fetch within a
	// line hits trivially; the detailed path makes the same approximation).
	if line := fin.PC >> 6; line != c.lastILine {
		if fin.Mode == isa.PAL {
			e.Hier.WarmI(mem.PALPhysBase+(fin.PC-mem.PALTextBase)%mem.PALPhysSize, ag)
		} else {
			pa, hit := e.ITLB.Lookup(fin.ASN, fin.PC, ag)
			if !hit {
				if e.Cfg.AppOnly {
					pa = e.Feed.Translate(fin, fin.PC)
					e.ITLB.Insert(fin.ASN, fin.PC, pa, ag)
				} else {
					e.Metrics.ITLBTraps++
					e.trapScratch = *fin // fin aliases the buffer the splice moves
					e.Feed.Trap(ctx, c.fetchIdx, &e.trapScratch, TrapITLB, fin.PC)
					return true, false
				}
			}
			e.Hier.WarmI(pa, ag)
		}
		c.lastILine = line
	}

	// Branch-predictor warming: predict and resolve back to back. There is
	// no wrong path in fast-forward — mispredictions have no timing to model.
	if fin.Class.IsBranch() {
		pred := e.Pred.Predict(ctx, &fin.Inst, ag)
		e.Pred.Resolve(ctx, &fin.Inst, pred, ag)
	}

	// Data-side warming, mirroring the detailed path's cache semantics:
	// loads and syncs read (physical syncs also write at commit, like the
	// store-buffer drain), stores write at commit.
	switch fin.Class {
	case isa.Load, isa.Store, isa.Sync:
		paddr := fin.Addr
		if !fin.Physical {
			pa, hit := e.DTLB.Lookup(fin.ASN, fin.Addr, ag)
			if !hit {
				if e.Cfg.AppOnly {
					pa = e.Feed.Translate(fin, fin.Addr)
					e.DTLB.Insert(fin.ASN, fin.Addr, pa, ag)
				} else {
					e.Metrics.DTLBTraps++
					e.trapScratch = *fin // fin aliases the buffer the splice moves
					e.Feed.Trap(ctx, c.fetchIdx, &e.trapScratch, TrapDTLB, fin.Addr)
					return true, false
				}
			}
			paddr = pa
		}
		if fin.Class != isa.Store {
			e.Hier.WarmD(paddr, ag, false)
		}
		if fin.Class == isa.Store || (fin.Class == isa.Sync && fin.Physical) {
			e.Hier.WarmD(paddr, ag, true)
		}
	}

	// Commit: the same bookkeeping the detailed retire stage performs.
	e.Mix.Add(&fin.Inst)
	e.Metrics.Retired++
	e.Metrics.Fetched++
	e.threadStat(fin.TID).Retired++
	if fin.Class == isa.PALCall && fin.Syscall != 0 {
		e.Metrics.SyscallsSeen++
	}
	idx := c.fetchIdx
	c.fetchIdx++
	c.lastCat, c.lastMode, c.lastSys = fin.Cat, fin.Mode, fin.Sys
	c.lastTID = fin.TID
	e.Feed.Retired(ctx, idx, fin)
	return true, true
}
