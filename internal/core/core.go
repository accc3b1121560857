// Package core is the public face of the reproduction: it assembles the
// simulated machine (SMT or superscalar pipeline, caches, TLBs, branch
// hardware), the behavioral Digital Unix kernel, and a workload — the
// multiprogrammed SPECInt95 suite or the Apache/SPECWeb server setup — into
// a runnable Simulator, mirroring the paper's SimOS-based methodology.
//
// Typical use:
//
//	sim := core.NewApache(core.Options{Processor: core.SMT, Seed: 1})
//	sim.Run(5_000_000)
//	fmt.Println(sim.Engine.Metrics.IPC(), sim.Engine.Cycles.KernelPct())
package core

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/kernel"
	"repro/internal/netsim"
	"repro/internal/pipeline"
	"repro/internal/workload"
	"repro/internal/workload/apache"
	"repro/internal/workload/specint"

	"repro/internal/cache"
)

// ProcessorKind selects the simulated core.
type ProcessorKind uint8

const (
	// SMT is the paper's 8-context simultaneous multithreaded processor.
	SMT ProcessorKind = iota
	// Superscalar is the otherwise-identical out-of-order baseline with one
	// context and a 2-stage-shorter pipeline.
	Superscalar
)

func (p ProcessorKind) String() string {
	if p == Superscalar {
		return "superscalar"
	}
	return "smt"
}

// Options configures a simulation.
type Options struct {
	// Processor selects SMT (default) or Superscalar.
	Processor ProcessorKind
	// Seed makes the whole simulation deterministic.
	Seed uint64
	// AppOnly selects application-only simulation (§2.3.1): syscalls and
	// TLB traps complete instantly with no kernel code.
	AppOnly bool
	// OmitPrivileged keeps the OS running but omits its references to the
	// caches and branch hardware (Table 9's "Apache only" column).
	OmitPrivileged bool
	// CyclesPer10ms overrides the interrupt granularity (0 = default).
	CyclesPer10ms uint64
	// Contexts overrides the SMT context count (0 = 8).
	Contexts int
	// IdleSpin selects the spinning (vs halting) idle loop, for the
	// paper's idle-loop resource-waste discussion.
	IdleSpin bool
	// Clients overrides the SPECWeb client count (0 = 128).
	Clients int
	// ServerProcesses overrides the Apache pool size (0 = 64).
	ServerProcesses int
	// RoundRobinFetch replaces ICOUNT with round-robin fetch (ablation).
	RoundRobinFetch bool
	// ModelNetworkDMA adds NIC DMA traffic to the memory bus (the paper
	// omits it; see ablation-dma).
	ModelNetworkDMA bool
	// AffinityScheduler enables the cache-affinity scheduling extension.
	AffinityScheduler bool
	// KeepAliveRequests > 1 switches the web workload to persistent
	// (HTTP/1.1-style) connections with that many requests per connection.
	KeepAliveRequests int
	// BufferCacheHitRate overrides the OS buffer-cache hit probability
	// for file reads (0 = default 0.92; use a small positive value to
	// model the disk-bound machine the paper speculates about in §2.2.1).
	BufferCacheHitRate float64
	// Faults configures fault injection (zero value = disabled; a
	// disabled configuration perturbs nothing).
	Faults faults.Config
	// AcceptBacklog bounds the kernel's listen queue (0 = the kernel
	// default modeling Digital Unix's somaxconn); a SYN at a full backlog
	// is dropped and recovered by the client's retransmit path.
	AcceptBacklog int
	// IdleTimeoutTicks, when > 0, makes the kernel reap accepted
	// connections idle for that many 10 ms network ticks (stalled
	// slowloris requests and idle keep-alive connections alike).
	IdleTimeoutTicks int
	// Finite kernel resource pools (0 = kernel defaults): socket-table
	// entries, mbuf-pool frames, process-table slots, and the per-process
	// descriptor limit. Exhaustion surfaces as structured syscall errors
	// and driver drops, never as a wedge.
	SocketTable int
	MbufPool    int
	ProcTable   int
	FDLimit     int
	// MemFrameLimit, when > 0, caps the frame allocator below physical
	// memory, forcing page reclaim at the low watermark.
	MemFrameLimit uint64
	// ThinkTicks overrides the client think time between requests in 10 ms
	// network ticks (0 = the netsim default).
	ThinkTicks int
	// StaggerTicks > 0 staggers initial client arrivals uniformly over
	// that many ticks instead of a thundering herd at tick 1 — essential
	// at large client counts, where a simultaneous first wave would melt
	// the accept backlog before steady state is reached.
	StaggerTicks int
	// MeasureLatency records per-request completion latency into the
	// network's histogram even when no overload faults are configured
	// (overload runs always measure).
	MeasureLatency bool
	// Sampling enables sampled simulation (zero value = full detail); see
	// the Sampling type.
	Sampling Sampling
}

// Sampling configures sampled simulation: deterministic functional
// fast-forward with microarchitectural warming, alternating with
// full-detail measurement windows (see internal/pipeline's sample.go). The
// zero value disables sampling.
type Sampling struct {
	// Period is the schedule period in cycles; each period contains one
	// warmup+detail block at a seeded pseudo-random offset. 0 disables
	// sampling.
	Period uint64
	// DetailWindow is the full-detail measurement window length in cycles
	// (0 = Period/10).
	DetailWindow uint64
	// Warmup is the detailed run-in before each window, excluded from the
	// estimators (0 = DetailWindow/2).
	Warmup uint64
}

// Enabled reports whether sampling is configured.
func (s Sampling) Enabled() bool { return s.Period > 0 }

// withDefaults fills the derived defaults for unset fields.
func (s Sampling) withDefaults() Sampling {
	if s.Period == 0 {
		return s
	}
	if s.DetailWindow == 0 {
		s.DetailWindow = s.Period / 10
	}
	if s.Warmup == 0 {
		s.Warmup = s.DetailWindow / 2
	}
	return s
}

// Seed-partition indices name the derived RNG streams carved out of
// Options.Seed (the kernel itself is partition 0); seedStride spaces them.
const (
	seedPartitionSPECInt = iota + 1
	seedPartitionNetwork
	seedPartitionApache
	seedPartitionFaults
	seedPartitionSampling
	seedPartitionCount
)

const seedStride = 101

// subseed returns the derived seed of partition p.
func (o Options) subseed(p int) uint64 {
	return o.Seed + uint64(p)*seedStride
}

// MaxContexts is the hardware context ceiling: the paper's SMT has 8
// contexts, and the fetch/retire datapaths are sized for that.
const MaxContexts = 8

// Validate rejects nonsensical option values. The New* constructors call it
// and panic on error; use New for the error-returning path.
func (o Options) Validate() error {
	if o.Contexts < 0 {
		return fmt.Errorf("core: negative Contexts %d", o.Contexts)
	}
	if o.Contexts > MaxContexts {
		return fmt.Errorf("core: Contexts %d exceeds the hardware maximum %d", o.Contexts, MaxContexts)
	}
	if d := uint64(pipelineConfig(o).Depth); o.CyclesPer10ms > 0 && o.CyclesPer10ms < d {
		return fmt.Errorf("core: CyclesPer10ms %d shorter than the %d-stage pipeline (an interrupt would fire before one instruction can retire)", o.CyclesPer10ms, d)
	}
	if o.Clients < 0 {
		return fmt.Errorf("core: negative Clients %d", o.Clients)
	}
	if o.ServerProcesses < 0 {
		return fmt.Errorf("core: negative ServerProcesses %d", o.ServerProcesses)
	}
	if o.KeepAliveRequests < 0 {
		return fmt.Errorf("core: negative KeepAliveRequests %d", o.KeepAliveRequests)
	}
	if o.AcceptBacklog < 0 {
		return fmt.Errorf("core: negative AcceptBacklog %d", o.AcceptBacklog)
	}
	if o.IdleTimeoutTicks < 0 {
		return fmt.Errorf("core: negative IdleTimeoutTicks %d", o.IdleTimeoutTicks)
	}
	if o.ThinkTicks < 0 {
		return fmt.Errorf("core: negative ThinkTicks %d", o.ThinkTicks)
	}
	if o.StaggerTicks < 0 {
		return fmt.Errorf("core: negative StaggerTicks %d", o.StaggerTicks)
	}
	if o.SocketTable < 0 || o.MbufPool < 0 || o.ProcTable < 0 || o.FDLimit < 0 {
		return fmt.Errorf("core: negative resource pool size (sockets %d, mbufs %d, procs %d, fds %d)",
			o.SocketTable, o.MbufPool, o.ProcTable, o.FDLimit)
	}
	if o.ProcTable > 0 && o.ServerProcesses > o.ProcTable {
		return fmt.Errorf("core: ServerProcesses %d exceeds ProcTable %d", o.ServerProcesses, o.ProcTable)
	}
	if o.BufferCacheHitRate < 0 || o.BufferCacheHitRate > 1 {
		return fmt.Errorf("core: BufferCacheHitRate %v outside [0,1]", o.BufferCacheHitRate)
	}
	if err := o.Faults.Validate(); err != nil {
		return err
	}
	if s := o.Sampling.withDefaults(); s.Enabled() {
		if s.DetailWindow == 0 {
			return fmt.Errorf("core: Sampling.Period %d is too small for a detail window (need at least 10 cycles, or set DetailWindow explicitly)", s.Period)
		}
		if s.Warmup+s.DetailWindow >= s.Period {
			return fmt.Errorf("core: Sampling warmup %d + window %d must be smaller than period %d (nothing left to fast-forward)", s.Warmup, s.DetailWindow, s.Period)
		}
	}
	return nil
}

// Simulator couples a machine, its OS, and a workload.
type Simulator struct {
	Engine *pipeline.Engine
	Kernel *kernel.Kernel
	// Net is the SPECWeb client fleet (nil for SPECInt runs).
	Net *netsim.Network
	// Server is the Apache model (nil for SPECInt runs).
	Server *apache.Server
	// Programs are the user processes.
	Programs []*workload.ScriptProgram
	// Workload names the workload ("specint", "apache").
	Workload string
	// Faults is the fault injector (nil when fault injection is off).
	Faults *faults.Injector
	// Opts is the configuration the simulator was built with.
	Opts Options
	// Sup configures periodic audits and auto-checkpoints under RunChecked
	// (zero value = both off).
	Sup Supervision
	// progCache memoizes factory-rebuilt user programs across repeated
	// RestoreInto calls on this simulator. Program construction (region
	// generation) is expensive and purely structural; the restore path
	// overwrites the walker and script state wholesale, so the same object
	// can host any checkpoint of the same (name, slot) program.
	progCache map[progKey]*workload.ScriptProgram
}

// progKey identifies a user program for progCache.
type progKey struct {
	name string
	slot int
}

// pipelineConfig builds the pipeline configuration from options.
func pipelineConfig(o Options) pipeline.Config {
	var pcfg pipeline.Config
	if o.Processor == Superscalar {
		pcfg = pipeline.SuperscalarConfig()
	} else {
		pcfg = pipeline.SMTConfig()
		if o.Contexts > 0 {
			pcfg.Contexts = o.Contexts
		}
	}
	pcfg.AppOnly = o.AppOnly
	pcfg.RoundRobinFetch = o.RoundRobinFetch
	return pcfg
}

// kernelConfig builds the kernel configuration from options.
func kernelConfig(o Options, contexts int) kernel.Config {
	kcfg := kernel.DefaultConfig()
	kcfg.Contexts = contexts
	kcfg.Seed = o.Seed
	kcfg.AppOnly = o.AppOnly
	kcfg.IdleSpin = o.IdleSpin
	kcfg.ModelNetworkDMA = o.ModelNetworkDMA
	kcfg.AffinityScheduler = o.AffinityScheduler
	if o.BufferCacheHitRate > 0 {
		kcfg.BufferCacheHitRate = o.BufferCacheHitRate
	}
	if o.CyclesPer10ms > 0 {
		kcfg.CyclesPer10ms = o.CyclesPer10ms
	}
	kcfg.AcceptBacklog = o.AcceptBacklog
	kcfg.IdleTimeoutTicks = uint64(o.IdleTimeoutTicks)
	if o.SocketTable > 0 {
		kcfg.SocketTableSize = o.SocketTable
	}
	if o.MbufPool > 0 {
		kcfg.MbufPoolSize = o.MbufPool
	}
	if o.ProcTable > 0 {
		kcfg.ProcTableSize = o.ProcTable
	}
	if o.FDLimit > 0 {
		kcfg.FDLimit = o.FDLimit
	}
	kcfg.MemFrameLimit = o.MemFrameLimit
	return kcfg
}

// assemble wires kernel and engine.
func assemble(o Options) (*Simulator, kernel.Config) {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	pcfg := pipelineConfig(o)
	kcfg := kernelConfig(o, pcfg.Contexts)
	k := kernel.New(kcfg)
	e := pipeline.New(pcfg, k, cache.NewHierarchy(cache.DefaultHierConfig()))
	k.AttachEngine(e)
	if o.OmitPrivileged {
		e.Hier.OmitPrivileged = true
		e.Pred.OmitPrivileged = true
	}
	if sm := o.Sampling.withDefaults(); sm.Enabled() {
		e.EnableSampling(pipeline.SampleConfig{
			Period:       sm.Period,
			DetailWindow: sm.DetailWindow,
			Warmup:       sm.Warmup,
			Seed:         o.subseed(seedPartitionSampling),
		})
	}
	sim := &Simulator{Engine: e, Kernel: k, Opts: o}
	if o.Faults.Enabled() {
		fcfg := o.Faults
		if fcfg.Seed == 0 {
			// Derive a replayable fault seed from the simulation seed.
			fcfg.Seed = o.subseed(seedPartitionFaults)
		}
		sim.Faults = faults.NewInjector(fcfg)
		k.SetFaults(sim.Faults)
	}
	return sim, kcfg
}

// NewSPECInt builds the paper's multiprogrammed SPECInt95 simulation: the
// eight integer benchmarks, one process each.
func NewSPECInt(o Options) *Simulator {
	sim, _ := assemble(o)
	sim.Workload = "specint"
	for _, p := range specint.Programs(o.subseed(seedPartitionSPECInt)) {
		sim.Programs = append(sim.Programs, p)
		sim.Kernel.AddProgram(p)
	}
	return sim
}

// NewApache builds the paper's OS-intensive workload: the 64-process Apache
// pool driven by 128 SPECWeb96 clients over the simulated network.
func NewApache(o Options) *Simulator {
	sim, _ := assemble(o)
	sim.Workload = "apache"

	ncfg := netsim.DefaultConfig()
	ncfg.Seed = o.subseed(seedPartitionNetwork)
	if o.Clients > 0 {
		ncfg.Clients = o.Clients
	}
	if o.KeepAliveRequests > 1 {
		ncfg.RequestsPerConn = o.KeepAliveRequests
	}
	if o.ThinkTicks > 0 {
		ncfg.ThinkTicks = o.ThinkTicks
	}
	ncfg.StaggerTicks = o.StaggerTicks
	ncfg.MeasureLatency = o.MeasureLatency
	if o.Faults.BurstEvery > 0 {
		// Size the dormant flash-crowd pool at 4 waves' worth of clients,
		// so consecutive bursts overlap before earlier arrivals drain.
		bs := o.Faults.BurstSize
		if bs == 0 {
			bs = faults.DefaultBurstSize
		}
		ncfg.BurstPool = bs * 4
	}
	net := netsim.New(ncfg)
	sim.Net = net
	sim.Kernel.SetNIC(net)
	if sim.Faults != nil {
		net.SetFaults(sim.Faults)
	}

	acfg := apache.DefaultConfig()
	acfg.Seed = o.subseed(seedPartitionApache)
	if o.ServerProcesses > 0 {
		acfg.Processes = o.ServerProcesses
	}
	acfg.FileSize = net.FileSize
	acfg.ConnOf = sim.Kernel.ConnOf
	acfg.KeepAlive = o.KeepAliveRequests > 1
	srv := apache.New(acfg)
	sim.Server = srv

	base, size := apache.TextRange()
	sim.Kernel.Mem.ShareRange(base, size)

	for _, p := range srv.Programs() {
		sim.Programs = append(sim.Programs, p)
		sim.Kernel.AddWorker(p)
	}
	if sim.Faults != nil {
		sim.Kernel.SetRespawn(func() workload.Program {
			p := srv.Respawn()
			sim.Programs = append(sim.Programs, p)
			return p
		})
	}
	return sim
}

// New builds a simulator for the named workload ("apache" or "specint"),
// returning an error (instead of panicking) on invalid options.
func New(workloadName string, o Options) (sim *Simulator, err error) {
	if verr := o.Validate(); verr != nil {
		return nil, verr
	}
	switch workloadName {
	case "apache", "specweb", "web":
		return NewApache(o), nil
	case "specint", "spec":
		return NewSPECInt(o), nil
	}
	return nil, fmt.Errorf("core: unknown workload %q", workloadName)
}

// Run advances the simulation by n cycles.
func (s *Simulator) Run(n uint64) { s.Engine.Run(n) }

// Now returns the current cycle.
func (s *Simulator) Now() uint64 { return s.Engine.Now() }
