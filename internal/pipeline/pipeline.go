// Package pipeline implements the cycle-level simultaneous-multithreaded
// out-of-order core of the paper's Table 1, and its superscalar baseline.
//
// The engine is execution-driven on instruction feeds supplied by the
// behavioral kernel (package kernel): each hardware context fetches from a
// per-context stream of decoded instructions, with branch prediction,
// wrong-path fetch after mispredictions, ICOUNT-2.8 fetch chooser, register
// renaming limits, 32-entry issue queues with oldest-first select, the
// paper's functional-unit complement (6 integer — 4 load/store + 2
// synchronization — and 4 floating point), a 12-wide in-order-per-thread
// retire stage, TLB-miss and interrupt traps, and the shared cache
// hierarchy/branch hardware from internal/cache and internal/bpred.
//
// Fetch reads each context's instructions a span at a time (Feed.Span). The
// issue stage is wakeup-driven (wakeup.go): a queued uop counts its
// incomplete producers once at dispatch, producer completion wakes it, and
// select walks only the age-ordered ready lists. This is the same schedule
// a per-cycle rescan of the queues produces, at a fraction of the host cost
// (DESIGN.md §6f).
//
// The superscalar baseline is the same engine configured with one hardware
// context and a 2-stage-shorter front end (§2.1: the superscalar lacks the
// extra contexts and two pipeline stages, due to its smaller register file).
//
// Documented simplifications (all shape-preserving):
//   - Branch-predictor tables are updated at fetch time rather than at
//     branch resolution (standard trace-simulation practice); mispredict
//     *timing* is still resolution-based: wrong-path fetch continues until
//     the branch's execute completes, then the context squashes and
//     redirects.
//   - Wrong-path instructions exercise the fetch path (ITLB, I-cache,
//     fetch bandwidth) but do not access the data cache or raise traps.
//   - Register dependency distances resolve against the same context's
//     recent instructions, approximating dependences across trap splices.
package pipeline

import (
	"fmt"
	"repro/internal/bpred"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/sys"
	"repro/internal/tlb"
	"strings"
)

// TrapKind identifies why the pipeline is re-entering the feed.
type TrapKind uint8

const (
	// TrapDTLB is a data-TLB miss (precise, at head of the context's ROB).
	TrapDTLB TrapKind = iota
	// TrapITLB is an instruction-TLB miss (at fetch).
	TrapITLB
	// TrapInterrupt is an external interrupt delivered to the context.
	TrapInterrupt
)

func (k TrapKind) String() string {
	switch k {
	case TrapDTLB:
		return "dtlb"
	case TrapITLB:
		return "itlb"
	case TrapInterrupt:
		return "interrupt"
	}
	return "trap?"
}

// FedInst is one decoded instruction delivered by the OS feed, carrying the
// software-thread identity the hardware needs.
type FedInst struct {
	isa.Inst
	// TID is the software thread (for conflict classification and
	// dependence tracking).
	TID uint32
	// ASN is the address-space number for TLB lookups.
	ASN uint16
	// PID is the process for page-table operations.
	PID uint64
	// Cat attributes the instruction's cycles for Figures 1–7.
	Cat sys.Category
	// Sys refines CatSyscall by syscall number (Figure 7).
	Sys uint16
}

// Feed is the interface the behavioral kernel implements to supply each
// hardware context's instruction stream and react to pipeline events.
type Feed interface {
	// Span returns the instructions of context ctx already buffered from
	// stream index idx on; span[i] is the instruction at idx+i. When none
	// is buffered the feed generates until idx is (at least one
	// instruction, never further ahead than an index-by-index reader would
	// make it); an empty span means the context has nothing to fetch (trap
	// serialization, blocked generation) and the pipeline retries later.
	// Indices are stable: re-reading an index returns the same instruction
	// unless a Trap spliced new code at or before it. A span aliases the
	// feed's buffer and is invalid after the next Span, Trap or Retired
	// call on any context.
	Span(ctx int, idx uint64) []FedInst
	// Retired notifies, in program order, that the instruction at idx
	// committed. The kernel uses this to unpause generation after
	// serializing instructions (syscall entry, PAL return).
	Retired(ctx int, idx uint64, in *FedInst)
	// Trap asks the kernel to splice handler code into ctx's stream at
	// idx (the instruction previously at idx, if any, follows the spliced
	// code). For TrapDTLB/TrapITLB the kernel also installs the
	// translation for vaddr. The pipeline refetches from idx afterwards.
	Trap(ctx int, idx uint64, in *FedInst, kind TrapKind, vaddr uint64)
	// Cycle is called once per cycle; the kernel returns the contexts to
	// which it wants to deliver interrupts this cycle.
	Cycle(now uint64) []int
	// Translate returns the physical address for vaddr in in's address
	// space, creating the mapping if needed; used only in application-only
	// mode, where TLB misses fill instantly (§2.3.1).
	Translate(in *FedInst, vaddr uint64) uint64
	// Halted reports whether the context is truly idle (no runnable
	// thread), as opposed to momentarily starved (trap serialization);
	// cycle attribution uses it.
	Halted(ctx int) bool
}

// Config sets the core's resources (defaults per the paper's Table 1).
type Config struct {
	// Contexts is the number of hardware contexts (8 SMT, 1 superscalar).
	Contexts int
	// FetchWidth is instructions fetched per cycle (8).
	FetchWidth int
	// FetchContexts is the number of contexts fetched per cycle (2; the
	// 2.8 ICOUNT scheme).
	FetchContexts int
	// Depth is the pipeline depth (9 SMT, 7 superscalar); it sets the
	// fetch-to-issue latency and thus the mispredict penalty.
	Depth int
	// IntQueueSize and FPQueueSize are the instruction-queue capacities (32).
	IntQueueSize, FPQueueSize int
	// IntRegs and FPRegs are renaming-register counts (100 each).
	IntRegs, FPRegs int
	// RetireWidth is instructions retired per cycle (12).
	RetireWidth int
	// IntUnits is the number of integer units (6), of which LSUnits (4)
	// can execute loads/stores and SyncUnits (2) synchronization ops.
	IntUnits, LSUnits, SyncUnits, FPUnits int
	// DCachePorts is concurrent data-cache accesses per cycle (2).
	DCachePorts int
	// ROBSize is the per-context in-flight instruction cap: a power of two
	// of at most 64, because each ROB slot records the slots of the queued
	// uops waiting on it in one 64-bit mask (New panics otherwise).
	ROBSize int
	// AppOnly selects application-only simulation: system calls and TLB
	// traps complete instantly with no kernel code (§2.3.1).
	AppOnly bool
	// RedirectPenalty is extra bubble cycles on squash/redirect beyond
	// the front-end refill implied by Depth.
	RedirectPenalty int
	// RoundRobinFetch replaces the ICOUNT fetch chooser with plain
	// round-robin (the ablation for the paper's 2.8 ICOUNT scheme).
	RoundRobinFetch bool
}

// SMTConfig returns the paper's 8-context SMT configuration.
func SMTConfig() Config {
	return Config{
		Contexts:        8,
		FetchWidth:      8,
		FetchContexts:   2,
		Depth:           9,
		IntQueueSize:    32,
		FPQueueSize:     32,
		IntRegs:         100,
		FPRegs:          100,
		RetireWidth:     12,
		IntUnits:        6,
		LSUnits:         4,
		SyncUnits:       2,
		FPUnits:         4,
		DCachePorts:     2,
		ROBSize:         64,
		RedirectPenalty: 2,
	}
}

// SuperscalarConfig returns the out-of-order superscalar baseline:
// identical resources minus the extra contexts, with a 2-stage-shorter
// pipeline (§2.1).
func SuperscalarConfig() Config {
	c := SMTConfig()
	c.Contexts = 1
	c.FetchContexts = 1
	c.Depth = 7
	return c
}

// frontLatency is the fetch-to-issue-eligibility latency implied by the
// pipeline depth (fetch, decode, rename, queue stages ahead of issue).
func (c Config) frontLatency() uint64 {
	fl := c.Depth - 4
	if fl < 1 {
		fl = 1
	}
	return uint64(fl)
}

type uopState uint8

const (
	stFetched uopState = iota
	stQueued
	stIssued
	stDone
)

// uop is one in-flight instruction. The one-byte fields sit together at the
// end so the slot packs into 136 bytes.
type uop struct {
	in        FedInst
	idx       uint64 // feed stream index (wrong-path: ^0)
	seq       uint64 // per-context sequence number
	id        uint64 // globally unique, validates completion events
	fetchedAt uint64
	doneAt    uint64
	paddr     uint64 // translated data address (memory classes, set at issue)

	// Wakeup state (wakeup.go), derived: Load rebuilds it. ticket orders
	// queued uops by dispatch; waiters has bit s set when the queued uop in
	// ROB slot s of this context waits on this one; pending counts the
	// producers whose completion event has not popped.
	ticket  uint64
	waiters uint64

	state     uopState
	wrongPath bool
	mispred   bool // correct-path branch that was mispredicted
	faulted   bool // DTLB miss awaiting precise trap at ROB head
	usesInt   bool // consumed an integer renaming register
	usesFP    bool
	inQueue   bool // occupying an issue-queue slot
	pending   uint8
}

// event is a completion event.
type event struct {
	at  uint64
	ctx int
	seq uint64
	id  uint64
}

// eventHeap is a typed min-heap ordered by completion cycle. It implements
// the exact sift algorithms of container/heap so that the raw array layout
// (which the engine section writes verbatim) is bit-identical to the
// previous container/heap-based implementation — but without boxing every
// event through interface{} on the per-cycle hot path.
type eventHeap []event

// push inserts ev, restoring the heap property by sifting up.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes and returns the minimum element. It mirrors container/heap.Pop:
// swap the root with the last element, sift the new root down over the
// shortened heap, then strip the tail.
func (h *eventHeap) pop() event {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].at < q[j1].at {
			j = j2
		}
		if q[j].at >= q[i].at {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	ev := q[n]
	*h = q[:n]
	return ev
}

// wrongGen generates wrong-path junk instructions from a mispredicted
// target: sequential PCs, mostly ALU ops with occasional branches, never
// raising traps.
type wrongGen struct {
	pc    uint64
	state uint64
	tmpl  FedInst
}

// startWrong (re)initializes the context's embedded wrong-path generator and
// installs it; the zero-allocation replacement for the old newWrongGen.
func (c *ctxState) startWrong(pc uint64, tmpl FedInst) {
	c.wrongBuf = wrongGen{pc: pc, state: pc ^ 0x9e3779b97f4a7c15, tmpl: tmpl}
	c.wrong = &c.wrongBuf
}

func (w *wrongGen) next() FedInst {
	w.state = w.state*6364136223846793005 + 1442695040888963407
	in := w.tmpl
	in.PC = w.pc
	in.Addr = 0
	in.Physical = false
	in.Taken = false
	in.Syscall = 0
	r := w.state >> 59
	switch {
	case r < 20:
		in.Class = isa.IntALU
	case r < 24:
		in.Class = isa.Load
	default:
		in.Class = isa.IntALU
	}
	in.Dep1 = uint16(1 + (w.state>>32)%8)
	in.Dep2 = 0
	w.pc += 4
	return in
}

// ctxState is the per-hardware-context pipeline state.
type ctxState struct {
	rob      []uop
	head, sz int
	headSeq  uint64
	nextSeq  uint64
	fetchIdx uint64
	dispatch int // count of dispatched uops from head (<= sz)

	icacheReadyAt uint64
	redirectAt    uint64
	wrong         *wrongGen
	// wrongBuf is the backing store for wrong: mispredictions are frequent
	// enough that allocating a fresh generator per wrong path shows up in
	// profiles, so wrong always points at this embedded value.
	wrongBuf  wrongGen //detlint:ignore snapshotcomplete backing store; serialized through the wrong pointer's fields
	lastILine uint64
	// hadWork records whether the context had anything to fetch this
	// cycle; attribution uses it to distinguish a drained-but-stalled
	// context from a truly idle one.
	hadWork bool
	// pendingILine is the line whose fill the context is waiting on; when
	// the fill returns, its instructions are delivered directly to the
	// fetch buffer even if the line has since been evicted (critical-word
	// bypass — guarantees forward progress under heavy set conflicts).
	pendingILine uint64
	lastCat      sys.Category
	lastMode     isa.Mode
	lastSys      uint16
	lastTID      uint32
}

func (c *ctxState) robAt(i int) *uop { // i-th from head
	return &c.rob[(c.head+i)&(len(c.rob)-1)]
}

func (c *ctxState) full() bool { return c.sz == len(c.rob) }

// qref locates a queued uop: an entry of an issue queue's ready list, and
// the form a queue takes in the checkpoint.
type qref struct {
	ctx    int
	seq    uint64
	id     uint64
	ticket uint64
}

// ThreadStat accumulates per-software-thread execution counters, for
// per-benchmark breakdowns (not a paper artifact, but what a user of the
// tool wants when one program of the mix behaves oddly).
type ThreadStat struct {
	// Retired counts committed instructions.
	Retired uint64
	// CtxCycles counts context-cycles attributed to the thread.
	CtxCycles uint64
}

// Metrics aggregates the engine-level counters of Tables 4 and 6.
type Metrics struct {
	Cycles        uint64
	Retired       uint64
	Fetched       uint64
	Squashed      uint64
	ZeroFetch     uint64
	ZeroIssue     uint64
	MaxIssue      uint64
	FetchableSum  uint64
	IntIssued     uint64
	FPIssued      uint64
	Interrupts    uint64
	DTLBTraps     uint64
	ITLBTraps     uint64
	SyscallsSeen  uint64
	RetireStallSB uint64
	// Per-context-cycle unfetchability reasons (diagnostics).
	StallRedirect uint64
	StallIMiss    uint64
	StallROBFull  uint64
	StallFeed     uint64
}

// IPC returns retired instructions per cycle.
func (m *Metrics) IPC() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.Retired) / float64(m.Cycles)
}

// SquashPct returns squashed instructions as a percentage of fetched.
func (m *Metrics) SquashPct() float64 {
	if m.Fetched == 0 {
		return 0
	}
	return 100 * float64(m.Squashed) / float64(m.Fetched)
}

// AvgFetchable returns the average number of fetchable contexts per cycle.
func (m *Metrics) AvgFetchable() float64 {
	if m.Cycles == 0 {
		return 0
	}
	return float64(m.FetchableSum) / float64(m.Cycles)
}

// PctCycles returns n as a percentage of total cycles.
func (m *Metrics) PctCycles(n uint64) float64 {
	if m.Cycles == 0 {
		return 0
	}
	return 100 * float64(n) / float64(m.Cycles)
}

// Engine is the simulated core plus all shared hardware structures.
type Engine struct {
	Cfg  Config //detlint:ignore snapshotcomplete configuration fixed at construction
	Feed Feed   //detlint:ignore snapshotcomplete kernel wiring attached at assembly, not serializable

	Hier *cache.Hierarchy
	ITLB *tlb.TLB
	DTLB *tlb.TLB
	Pred *bpred.Predictor
	SB   *cache.StoreBuffer

	Metrics Metrics
	Cycles  stats.Cycles
	Mix     stats.Mix

	now       uint64
	ctxs      []ctxState
	events    eventHeap
	nextID    uint64
	perThread []ThreadStat

	// intQ and fpQ are the shared issue queues (wakeup.go); nextTicket
	// numbers dispatches. Both are derived from the ROBs and the saved
	// queue order, and Load rebuilds them.
	intQ, fpQ        issueQueue //detlint:ignore snapshotcomplete derived wakeup index; Save writes the queue order, Load rebuilds it
	nextTicket       uint64     //detlint:ignore snapshotcomplete derived dispatch order, renumbered by Load
	intRegsUsed      int
	fpRegsUsed       int
	rrRetire         int
	rrFetch          int
	rrDispatch       int
	fetchableScratch []int   //detlint:ignore snapshotcomplete scratch buffer, carries no state across cycles
	retireScratch    FedInst //detlint:ignore snapshotcomplete scratch copy handed to Feed.Retired, dead after the call
	trapScratch      FedInst //detlint:ignore snapshotcomplete scratch copy handed to Feed.Trap, dead after the call
	fetchScratch     FedInst //detlint:ignore snapshotcomplete scratch for the wrong-path instruction being fetched, dead after fetchCtx
	ffScratch        FedInst //detlint:ignore snapshotcomplete scratch for the instruction being fast-forwarded, dead after ffExec

	// smp is the sampling FSM (sample.go); zero value means sampling off.
	smp sampler
}

// New builds an engine over the given feed and hardware structures.
func New(cfg Config, feed Feed, hier *cache.Hierarchy) *Engine {
	if cfg.ROBSize&(cfg.ROBSize-1) != 0 {
		panic("pipeline: ROBSize must be a power of two")
	}
	if cfg.ROBSize > 64 {
		panic(fmt.Sprintf("pipeline: ROBSize %d exceeds 64, the width of a ROB slot's waiter mask", cfg.ROBSize))
	}
	e := &Engine{
		Cfg:  cfg,
		Feed: feed,
		Hier: hier,
		ITLB: tlb.New("ITLB", 128),
		DTLB: tlb.New("DTLB", 128),
		Pred: bpred.New(cfg.Contexts),
		SB:   cache.NewStoreBuffer(hier.Cfg.StoreBufferEntries),
		ctxs: make([]ctxState, cfg.Contexts),
		// Preallocate every per-cycle scratch structure at its steady-state
		// bound so the cycle loop never grows a slice: the ready lists are
		// hard-capped by the queue sizes, the completion heap by the total
		// in-flight window, and the fetchable set by the context count.
		events:           make(eventHeap, 0, cfg.Contexts*cfg.ROBSize),
		intQ:             issueQueue{ready: make([]qref, 0, cfg.IntQueueSize)},
		fpQ:              issueQueue{ready: make([]qref, 0, cfg.FPQueueSize)},
		fetchableScratch: make([]int, 0, cfg.Contexts),
	}
	for i := range e.ctxs {
		e.ctxs[i].rob = make([]uop, cfg.ROBSize)
		e.ctxs[i].lastCat = sys.CatIdle
		e.ctxs[i].lastMode = isa.Idle
		e.ctxs[i].pendingILine = ^uint64(0)
	}
	return e
}

// Now returns the current cycle.
func (e *Engine) Now() uint64 { return e.now }

// DiagString renders a one-look snapshot of per-context pipeline state for
// watchdog diagnostics: in-flight count, fetch position, and why a context
// is not making progress (halted, awaiting redirect, or an I-miss).
func (e *Engine) DiagString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline: cycle=%d retired=%d fetched=%d intQ=%d (ready %d) fpQ=%d (ready %d)\n",
		e.now, e.Metrics.Retired, e.Metrics.Fetched,
		e.intQ.occupancy(), len(e.intQ.ready), e.fpQ.occupancy(), len(e.fpQ.ready))
	for i := range e.ctxs {
		c := &e.ctxs[i]
		state := "running"
		switch {
		case e.Feed.Halted(i) && c.sz == 0:
			state = "halted"
		case e.now < c.redirectAt:
			state = fmt.Sprintf("redirect(+%d)", c.redirectAt-e.now)
		case c.icacheReadyAt > e.now:
			state = fmt.Sprintf("imiss(+%d)", c.icacheReadyAt-e.now)
		case c.wrong != nil:
			state = "wrong-path"
		}
		fmt.Fprintf(&b, "  ctx%d: inflight=%d fetchIdx=%d %s\n", i, c.sz, c.fetchIdx, state)
	}
	return b.String()
}

// threadStat returns the stat slot for tid, growing the table as needed.
func (e *Engine) threadStat(tid uint32) *ThreadStat {
	// Interrupt/wrong-path pseudo-TIDs share one overflow slot.
	if tid > 1<<16 {
		tid = 0
	}
	for uint32(len(e.perThread)) <= tid {
		e.perThread = append(e.perThread, ThreadStat{})
	}
	return &e.perThread[tid]
}

// ThreadStats returns a copy of the per-thread counters for tid.
func (e *Engine) ThreadStats(tid uint32) ThreadStat {
	if tid > 1<<16 {
		tid = 0
	}
	if uint32(len(e.perThread)) <= tid {
		return ThreadStat{}
	}
	return e.perThread[tid]
}
