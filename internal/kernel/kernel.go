// Package kernel is the behavioral model of Digital Unix 4.0d running on
// the simulated SMT, as modified by the paper's authors (§2.2.2).
//
// It implements pipeline.Feed: for every hardware context it generates the
// instruction stream the context fetches — interleaving user-program code
// (from workload.ScriptProgram models) with the kernel's own synthetic code:
// system-call services, PAL TLB-miss handlers, the virtual-memory layer,
// an SMP-style scheduler with Alpha ASN management, netisr protocol-stack
// threads, interrupt stubs, and the idle loop.
//
// The kernel's code regions are synthetic (internal/workload) but laid out
// in a realistically large kernel text segment, with data split between
// globally-mapped virtual pages and physically-addressed (TLB-bypassing)
// accesses, calibrated against the paper's Tables 2 and 5. Everything the
// paper measures about the OS — cache/TLB/BTB interference between kernel
// threads, TLB-miss handling cost, syscall time by service, netisr load —
// is emergent from these streams executing on the pipeline.
package kernel

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/faults"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/sys"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// Config parameterizes the kernel model.
type Config struct {
	// Contexts is the number of hardware contexts fed.
	Contexts int
	// Seed drives all kernel-side randomness.
	Seed uint64
	// AppOnly selects the paper's application-only methodology (§2.3.1):
	// system calls and traps complete instantly with no kernel code.
	AppOnly bool
	// CyclesPer10ms is the clock/network interrupt granularity in cycles
	// (the paper's simulated 10 ms; scaled so that multi-interrupt
	// behavior is observable in laptop-scale runs).
	CyclesPer10ms uint64
	// QuantumInsts is the scheduling quantum in user instructions.
	QuantumInsts uint64
	// NetisrThreads is the number of netisr kernel threads (the paper's
	// "set of identical threads responsible for managing the network
	// protocol stack").
	NetisrThreads int
	// MaxASN is the number of address-space numbers before recycling
	// (Alpha-style); recycling invalidates TLB entries.
	MaxASN uint16
	// BufferCacheHitRate is the probability a file read/open is served
	// from the OS buffer cache; misses execute the disk driver and DMA
	// (the disk itself is zero-latency, as in the paper's §2.2.1).
	BufferCacheHitRate float64
	// ModelNetworkDMA adds the network interface's DMA transfers to the
	// memory bus (the paper omits them; §2.2.1 argues the average bus
	// delay stays insignificant — this flag lets the claim be tested).
	ModelNetworkDMA bool
	// AffinityScheduler makes the scheduler prefer re-running a thread on
	// the hardware context it last used (a cache-affinity policy, in the
	// spirit of the SMT-aware scheduling the paper lists as future work).
	AffinityScheduler bool
	// IdleSpin makes idle contexts execute the OS spin-wait idle loop,
	// competing for fetch bandwidth — the SMT resource waste the paper
	// calls out in §2.2.2. The default models a halting idle (WTINT-style):
	// an idle context fetches nothing until work arrives. Idle cycles are
	// attributed either way.
	IdleSpin bool
	// AcceptBacklog bounds the listen socket's accept queue (0 =
	// DefaultAcceptBacklog, modeling Digital Unix's somaxconn). A SYN
	// arriving at a full backlog is dropped; the client recovers through
	// its retransmit path.
	AcceptBacklog int
	// IdleTimeoutTicks, when > 0, reaps accepted connection sockets idle
	// for that many 10 ms network ticks: stalled slowloris requests and
	// idle keep-alive connections alike.
	IdleTimeoutTicks uint64
	// SocketTableSize bounds the kernel socket table (0 =
	// DefaultSocketTable). A SYN arriving with the table full is dropped
	// (ENOBUFS in the stack); the client recovers via retransmit.
	SocketTableSize int
	// MbufPoolSize bounds the frames the NIC may queue for netisr
	// processing (0 = DefaultMbufPool). Arrivals beyond it are dropped at
	// the interface, as a real mbuf exhaustion drops packets.
	MbufPoolSize int
	// ProcTableSize bounds the process/thread table slots available to
	// user processes (0 = DefaultProcTable). fork beyond it fails with the
	// EAGAIN analogue and the master retries.
	ProcTableSize int
	// FDLimit bounds per-process open network descriptors (0 =
	// DefaultFDLimit). accept beyond it fails with the EMFILE analogue.
	FDLimit int
	// MemFrameLimit, when > 0, caps the frame allocator below its physical
	// size at boot (see mem.SetFrameLimit); the exhaustion fault domain can
	// shrink it further mid-run.
	MemFrameLimit uint64
}

// DefaultAcceptBacklog is the default listen-queue bound (Digital Unix
// shipped somaxconn-sized listen queues of this order).
const DefaultAcceptBacklog = 1024

// Default resource-pool capacities. They are sized like a period Digital
// Unix installation relative to this simulation's scale: generous enough
// that no default workload ever binds on them, small enough that the
// exhaustion fault domain can squeeze them into range of real demand.
const (
	// DefaultSocketTable bounds concurrently open sockets.
	DefaultSocketTable = 4096
	// DefaultMbufPool bounds NIC frames queued for netisr processing.
	DefaultMbufPool = 8192
	// DefaultProcTable bounds live user processes.
	DefaultProcTable = 256
	// DefaultFDLimit bounds per-process open network descriptors
	// (getdtablesize-style).
	DefaultFDLimit = 64
)

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Contexts:           8,
		Seed:               1,
		CyclesPer10ms:      2_000_000,
		QuantumInsts:       400_000,
		NetisrThreads:      2,
		MaxASN:             63,
		BufferCacheHitRate: 0.92,
	}
}

// threadState is the scheduler state of a software thread.
type threadState uint8

const (
	tsRunnable threadState = iota
	tsRunning
	tsBlocked
	tsExited
)

// threadKind distinguishes the thread models.
type threadKind uint8

const (
	tkUser threadKind = iota
	tkNetisr
	tkIdle
)

// Thread is one software thread known to the scheduler.
type Thread struct {
	tid   uint32
	pid   uint64
	asn   uint16
	kind  threadKind
	state threadState
	prog  *workload.ScriptProgram
	// burst is the remaining user instructions of the current StepRun.
	burst uint64
	// sinceSched counts user instructions since last scheduling, for the
	// preemption quantum.
	sinceSched uint64
	// lastCtx is the hardware context the thread last ran on.
	lastCtx int
	// wakeReq is the blocked syscall to complete when rescheduled.
	wakeReq *sys.Request
	// wakeResult is the result to report for wakeReq.
	wakeResult int
	// sock is the socket index the thread is blocked on (-1 none).
	sock int
	// ownHead is the head of the thread's intrusive owned-socket list
	// (socket ids chained through ownNext; 0 = empty, since socket 0 is
	// the listen socket and never owned). Derived state: rebuilt from
	// socket owners on restore.
	ownHead int
	// worker marks a crashable, respawnable server process (the
	// fault-injection process domain targets only these).
	worker bool
	// released is set once the exit teardown (address-space release, ASN
	// invalidation) has retired. Between tsExited and released the thread
	// legitimately still owns its pages and TLB entries.
	released bool
	// fds counts the thread's open network descriptors, against the
	// per-process FD limit.
	fds int
	// slot is the process-table slot a user thread occupies (-1 for kernel
	// threads, and after the slot is freed at exit teardown).
	slot int
}

// TID returns the thread's identifier.
func (t *Thread) TID() uint32 { return t.tid }

// Kernel implements pipeline.Feed.
type Kernel struct {
	cfg Config //detlint:ignore snapshotcomplete configuration fixed at construction
	rng *rng.Rand

	Mem *mem.Memory

	// Hardware hooks, wired after pipeline construction.
	itlb *tlb.TLB         //detlint:ignore snapshotcomplete hardware wiring re-attached by core assembly on restore
	dtlb *tlb.TLB         //detlint:ignore snapshotcomplete hardware wiring re-attached by core assembly on restore
	hier *cache.Hierarchy //detlint:ignore snapshotcomplete hardware wiring re-attached by core assembly on restore

	code *codebase // kernel code regions + walkers

	threads []*Thread
	runQ    []*Thread
	feeds   []ctxFeed

	nextASN   uint16
	asnEpoch  uint64 //detlint:ignore counterflow ASN generation stamp, allocator state not a metric
	nextTID   uint32
	nextPID   uint64 //detlint:ignore counterflow PID allocator bump pointer, not a metric
	rrIntCtx  int
	lastTick  uint64
	interrupt []int //detlint:ignore snapshotcomplete scratch buffer returned by Cycle, carries no state across cycles

	// handlerBuf is the scratch the trap handlers assemble spliced code in;
	// Trap consumes it before returning.
	handlerBuf []pipeline.FedInst //detlint:ignore snapshotcomplete scratch buffer, dead once Trap returns

	net *netState

	// faults is the fault injector (nil = no process faults); respawn
	// builds a replacement worker after an injected crash.
	faults  *faults.Injector               //detlint:ignore snapshotcomplete fault wiring re-attached by core assembly on restore
	respawn func() *workload.ScriptProgram //detlint:ignore snapshotcomplete fault wiring re-attached by core assembly on restore

	// Counters surfaced in reports.
	ContextSwitches uint64
	Preemptions     uint64
	SyscallCount    [sys.NumSyscalls]uint64
	VMFaults        [3]uint64 // indexed by mem.FaultKind
	ASNRecycles     uint64
	ClockInterrupts uint64
	NetInterrupts   uint64
	IdleScheduled   uint64
	// SvcInstByRes counts service instructions by resource class, the
	// grouping of Figure 7's right-hand chart.
	SvcInstByRes [5]uint64
	// lockHolder[i] is the thread currently holding the kernel lock for
	// resource class i (0 = free); LockContentions and SpinInsts count
	// the resulting spin-waiting.
	lockHolder      [5]uint32
	LockContentions uint64
	SpinInsts       uint64
	// DiskReads counts buffer-cache misses that ran the disk-driver path.
	DiskReads uint64
	// WorkerCrashes and WorkerRespawns count the fault-injection process
	// domain: injected worker deaths and the master's re-forks.
	WorkerCrashes  uint64
	WorkerRespawns uint64
	// ConnsRefused counts SYNs dropped at a full accept backlog;
	// ReapedIdle and ReapedSlowloris count idle-timer teardowns of idle
	// keep-alive connections and stalled (slow-trickle) requests.
	ConnsRefused    uint64
	ReapedIdle      uint64
	ReapedSlowloris uint64

	// Finite-pool state: free-listed flat tables whose exhaustion returns
	// structured errors through the syscall path instead of growing
	// unbounded (see DefaultSocketTable and friends).
	//
	// procSlots[i] is the tid occupying process-table slot i (0 = free);
	// procFree is its LIFO freelist.
	procSlots []uint32
	procFree  []int
	// liveUsers counts user threads between fork and exit teardown (they
	// hold a process slot the whole time).
	liveUsers int
	// pendingRespawns counts master re-forks refused at a full process
	// table, retried each network tick.
	pendingRespawns int
	// Effective capacities: equal to the configured sizes until the
	// exhaustion fault domain squeezes them (squeezed latches that the
	// one-shot squeeze has been applied).
	sockCapEff int
	mbufCapEff int
	fdLimEff   int
	procCapEff int
	squeezed   bool

	// Pool-exhaustion counters and demand gauges.
	SockPoolRejects uint64 // SYNs dropped at a full socket table (ENOBUFS)
	MbufDrops       uint64 // NIC arrivals dropped at a full mbuf pool
	FDRejects       uint64 // accepts refused at the per-process FD limit (EMFILE)
	ForkRejects     uint64 // forks refused at a full process table (EAGAIN)
	SockHighwater   int    // peak sockets in use
	MbufHighwater   int    // peak mbuf-pool occupancy
}

// New builds a kernel model. Wire the hardware with AttachEngine before use.
func New(cfg Config) *Kernel {
	if cfg.Contexts <= 0 {
		panic("kernel: no contexts")
	}
	if cfg.MaxASN == 0 {
		cfg.MaxASN = 63
	}
	if cfg.CyclesPer10ms == 0 {
		cfg.CyclesPer10ms = 2_000_000
	}
	m, err := mem.NewMemory(mem.AllocatorBytes)
	if err != nil {
		panic(fmt.Sprintf("kernel: %v", err))
	}
	if cfg.SocketTableSize <= 0 {
		cfg.SocketTableSize = DefaultSocketTable
	}
	if cfg.MbufPoolSize <= 0 {
		cfg.MbufPoolSize = DefaultMbufPool
	}
	if cfg.ProcTableSize <= 0 {
		cfg.ProcTableSize = DefaultProcTable
	}
	if cfg.FDLimit <= 0 {
		cfg.FDLimit = DefaultFDLimit
	}
	k := &Kernel{
		cfg:        cfg,
		rng:        rng.New(cfg.Seed ^ 0xfeedface),
		Mem:        m,
		feeds:      make([]ctxFeed, cfg.Contexts),
		nextTID:    1,
		nextPID:    1,
		nextASN:    1,
		sockCapEff: cfg.SocketTableSize,
		mbufCapEff: cfg.MbufPoolSize,
		fdLimEff:   cfg.FDLimit,
		procCapEff: cfg.ProcTableSize,
	}
	k.procSlots = make([]uint32, cfg.ProcTableSize)
	k.procFree = make([]int, cfg.ProcTableSize)
	for i := range k.procFree {
		// LIFO freelist popped from the tail: slot 0 is handed out first.
		k.procFree[i] = cfg.ProcTableSize - 1 - i
	}
	k.code = buildCodebase(k.rng.Split(1), cfg.Contexts)
	k.net = newNetState()
	for i := range k.feeds {
		k.feeds[i].init()
		// Every context gets an idle thread of its own.
		idle := k.newThread(tkIdle, nil)
		idle.state = tsRunning
		k.feeds[i].idle = idle
		k.feeds[i].cur = idle
	}
	for i := 0; i < cfg.NetisrThreads; i++ {
		n := k.newThread(tkNetisr, nil)
		n.state = tsBlocked
		n.sock = -1
	}
	k.prewarm()
	if cfg.MemFrameLimit > 0 {
		k.Mem.SetFrameLimit(cfg.MemFrameLimit)
	}
	return k
}

// prewarm maps the kernel's text and virtual data pages, modeling the
// booted, memory-resident OS the paper measures (SimOS checkpoints after
// boot). TLBs and caches still start cold.
func (k *Kernel) prewarm() {
	for _, reg := range k.code.all {
		if reg.Mode != isa.PAL { // PAL text is physically addressed
			for va := reg.Base; va < reg.Base+reg.Size(); va += mem.PageSize {
				k.Mem.Touch(mem.KernelPID, va)
			}
		}
		for _, d := range reg.Data {
			if d.Physical {
				continue
			}
			for va := d.Base; va < d.Base+d.Size; va += mem.PageSize {
				k.Mem.Touch(mem.KernelPID, va)
			}
		}
	}
	// Pre-mapping is setup, not measured workload behavior.
	k.Mem.Allocs = 0
	k.Mem.Refills = 0
}

// AttachEngine wires the kernel to the engine's TLBs and caches. It must be
// called once before simulation starts.
func (k *Kernel) AttachEngine(e *pipeline.Engine) {
	k.itlb = e.ITLB
	k.dtlb = e.DTLB
	k.hier = e.Hier
}

// newThread registers a thread. A user thread needs a process-table slot;
// newThread returns nil when the table is full (the fork-time admission
// control — callers surface the EAGAIN analogue).
func (k *Kernel) newThread(kind threadKind, prog *workload.ScriptProgram) *Thread {
	t := &Thread{
		tid:  k.nextTID,
		kind: kind,
		prog: prog,
		sock: -1,
		slot: -1,
	}
	if kind == tkUser {
		if !k.canFork() {
			return nil
		}
		n := len(k.procFree)
		t.slot = k.procFree[n-1]
		k.procFree = k.procFree[:n-1]
		k.procSlots[t.slot] = t.tid
		k.liveUsers++
		k.nextTID++
		k.nextPID++
		t.pid = k.nextPID
		t.asn = k.allocASN()
	} else {
		k.nextTID++
		t.pid = mem.KernelPID
		t.asn = tlb.GlobalASN
	}
	k.threads = append(k.threads, t)
	return t
}

// canFork reports whether a process-table slot is available under the
// effective (possibly squeezed) capacity.
func (k *Kernel) canFork() bool {
	return len(k.procFree) > 0 && k.liveUsers < k.procCapEff
}

// freeProcSlot returns a thread's process-table slot at exit teardown.
func (k *Kernel) freeProcSlot(t *Thread) {
	if t.slot < 0 {
		return
	}
	k.procSlots[t.slot] = 0
	k.procFree = append(k.procFree, t.slot)
	t.slot = -1
	k.liveUsers--
}

// allocASN hands out address-space numbers, recycling (with TLB
// invalidation, the §2.2.2 modification) when they run out.
func (k *Kernel) allocASN() uint16 {
	asn := k.nextASN
	k.nextASN++
	if k.nextASN > k.cfg.MaxASN {
		k.nextASN = 1
		k.asnEpoch++
	}
	if k.asnEpoch > 0 && k.itlb != nil {
		// The ASN is being reused: flush stale translations.
		k.itlb.InvalidateASN(asn)
		k.dtlb.InvalidateASN(asn)
		k.ASNRecycles++
	}
	return asn
}

// AddProgram registers a user process running prog and makes it runnable.
// It returns the thread (for tests and reporting). Initial wiring must fit
// the process table; size ProcTableSize for the workload.
func (k *Kernel) AddProgram(prog *workload.ScriptProgram) *Thread {
	t := k.newThread(tkUser, prog)
	if t == nil {
		panic(fmt.Sprintf("kernel: process table full (%d slots); raise Config.ProcTableSize",
			k.cfg.ProcTableSize))
	}
	t.state = tsRunnable
	k.runQ = append(k.runQ, t)
	return t
}

// AddWorker registers a user process that the fault-injection process
// domain may crash (an Apache pool worker).
func (k *Kernel) AddWorker(prog *workload.ScriptProgram) *Thread {
	t := k.AddProgram(prog)
	t.worker = true
	return t
}

// SetFaults attaches the fault injector (nil disables process faults).
func (k *Kernel) SetFaults(inj *faults.Injector) { k.faults = inj }

// applySqueeze is the exhaustion fault domain landing mid-run: the frame
// allocator and the effective pool capacities shrink to (1-frac) of their
// pre-squeeze sizes, with floors that leave the machine degraded but
// functional (the sweep's graceful-degradation contract).
func (k *Kernel) applySqueeze(memFrac, poolFrac float64) {
	k.squeezed = true
	if k.faults != nil {
		k.faults.Squeezes++
	}
	if memFrac > 0 {
		base := k.Mem.FrameLimit()
		if base == 0 {
			base = k.Mem.Frames()
		}
		k.Mem.SetFrameLimit(uint64(float64(base) * (1 - memFrac)))
	}
	if poolFrac > 0 {
		scale := func(v, floor int) int {
			n := int(float64(v) * (1 - poolFrac))
			if n < floor {
				n = floor
			}
			return n
		}
		k.sockCapEff = scale(k.cfg.SocketTableSize, 2)
		k.mbufCapEff = scale(k.cfg.MbufPoolSize, netisrBatch)
		k.fdLimEff = scale(k.cfg.FDLimit, 1)
		k.procCapEff = scale(k.cfg.ProcTableSize, 1)
	}
}

// SetRespawn installs the master's re-fork hook: called after an injected
// worker crash to build the replacement process.
func (k *Kernel) SetRespawn(fn func() *workload.ScriptProgram) { k.respawn = fn }

// StateCounts returns the scheduler population by state, for watchdog
// diagnostics.
func (k *Kernel) StateCounts() (runnable, running, blocked, exited int) {
	for _, t := range k.threads {
		switch t.state {
		case tsRunnable:
			runnable++
		case tsRunning:
			running++
		case tsBlocked:
			blocked++
		case tsExited:
			exited++
		}
	}
	return
}

// RunQLen returns the number of queued runnable threads.
func (k *Kernel) RunQLen() int { return len(k.runQ) }

// Threads returns all registered threads.
func (k *Kernel) Threads() []*Thread { return k.threads }

// ThreadName returns a human-readable name for a thread.
func (t *Thread) ThreadName() string {
	switch t.kind {
	case tkNetisr:
		return "netisr"
	case tkIdle:
		return "idle"
	}
	if t.prog != nil {
		return t.prog.Name()
	}
	return "thread"
}

// wake makes a blocked thread runnable.
func (k *Kernel) wake(t *Thread) {
	if t.state != tsBlocked {
		return
	}
	t.state = tsRunnable
	k.runQ = append(k.runQ, t)
}

// pickNext pops the next runnable thread for ctx, or nil. Under the
// affinity policy, a thread that last ran on ctx is preferred (its cache
// and TLB state may survive).
func (k *Kernel) pickNext(ctx int) *Thread {
	if k.cfg.AffinityScheduler {
		for i, t := range k.runQ {
			if t.state == tsRunnable && t.lastCtx == ctx {
				k.runQ = append(k.runQ[:i], k.runQ[i+1:]...)
				t.state = tsRunning
				t.lastCtx = ctx
				return t
			}
		}
	}
	for len(k.runQ) > 0 {
		t := k.runQ[0]
		k.runQ = k.runQ[1:]
		if t.state == tsRunnable {
			t.state = tsRunning
			t.lastCtx = ctx
			return t
		}
	}
	return nil
}
