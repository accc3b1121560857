package core

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
)

// Set parses a -proc value ("smt", "ss" or "superscalar"), making
// *ProcessorKind a flag.Value.
func (p *ProcessorKind) Set(s string) error {
	switch s {
	case "smt":
		*p = SMT
	case "ss", "superscalar":
		*p = Superscalar
	default:
		return fmt.Errorf("unknown processor %q (smt|ss)", s)
	}
	return nil
}

// BindFlags is the command-line table of Options: each flag writes straight
// into its own field, faults.Config included. Fields with no flag are
// configured programmatically by the experiments. The sampled-mode trio is
// bound through BindSampleFlags: o.Sampling applies only when *sample is
// set.
func (o *Options) BindFlags(fs *flag.FlagSet, sample *bool) {
	fs.Var(&o.Processor, "proc", "processor: smt | ss")
	fs.Uint64Var(&o.Seed, "seed", 1, "simulation seed")
	fs.BoolVar(&o.AppOnly, "apponly", false, "application-only simulation (syscalls/traps instant)")
	fs.BoolVar(&o.OmitPrivileged, "omitpriv", false, "omit privileged references to caches/BTB (Table 9 mode)")
	fs.Uint64Var(&o.CyclesPer10ms, "interval", 200_000, "cycles per simulated 10ms (interrupt granularity)")
	fs.IntVar(&o.Contexts, "contexts", 0, "override SMT hardware contexts (default 8)")
	fs.IntVar(&o.ServerProcesses, "procs", 0, "override Apache server processes (default 64)")
	fs.IntVar(&o.Clients, "clients", 0, "override SPECWeb clients (default 128)")
	fs.IntVar(&o.ThinkTicks, "think", 0, "client think time between requests in 10ms ticks (0 = default)")
	fs.IntVar(&o.StaggerTicks, "stagger", 0, "stagger initial client arrivals over N 10ms ticks (0 = synchronized start)")
	fs.BoolVar(&o.MeasureLatency, "measure-latency", false, "record per-request latency percentiles even without overload faults")
	fs.BoolVar(&o.IdleSpin, "idlespin", false, "idle contexts spin instead of halting")
	fs.BoolVar(&o.RoundRobinFetch, "rrfetch", false, "round-robin fetch instead of ICOUNT")

	// Fault injection (see FAULTS.md).
	f := &o.Faults
	fs.Float64Var(&f.LossRate, "loss", 0, "per-frame network loss probability [0,1]")
	fs.Float64Var(&f.CorruptRate, "corrupt", 0, "per-frame network corruption probability [0,1]")
	fs.Float64Var(&f.DelayRate, "delay", 0, "per-frame network delay probability [0,1]")
	fs.IntVar(&f.MaxDelayTicks, "maxdelay", 0, "max in-transit delay in 10ms ticks (0 = default)")
	fs.Float64Var(&f.CrashRate, "crashrate", 0, "per-syscall Apache worker crash probability [0,1]")
	fs.Uint64Var(&f.Seed, "faultseed", 0, "fault-sampling seed (0 = derive from -seed)")
	fs.Uint64Var(&f.LivelockWindow, "watchdog", 0, "livelock window in cycles (0 = default)")

	// Overload (see FAULTS.md, "Overload").
	fs.IntVar(&o.AcceptBacklog, "backlog", 0, "accept-backlog bound on the listen socket (0 = default 1024)")
	fs.IntVar(&o.IdleTimeoutTicks, "idle-timeout", 0, "reap connections idle for N 10ms ticks (0 = off)")
	fs.Float64Var(&f.SlowClientRate, "slowrate", 0, "probability a client is a slow-trickle (slowloris) sender [0,1]")
	fs.IntVar(&f.TrickleTicks, "trickle", 0, "ticks between a slow client's request chunks (0 = default)")
	fs.Float64Var(&f.StormClientRate, "stormrate", 0, "probability a client is a keep-alive storm client [0,1]")
	fs.IntVar(&f.StormHoldTicks, "stormhold", 0, "ticks a storm client holds its connection idle (0 = default)")
	fs.IntVar(&f.BurstEvery, "burst-every", 0, "activate a flash-crowd burst every N ticks (0 = off)")
	fs.IntVar(&f.BurstSize, "burst-size", 0, "clients per flash-crowd burst (0 = default)")

	// Resource exhaustion (see FAULTS.md, "Exhaustion").
	fs.Uint64Var(&o.MemFrameLimit, "mem-frames", 0, "cap the frame allocator at N frames (0 = all of physical memory)")
	fs.IntVar(&o.SocketTable, "sock-table", 0, "socket-table size (0 = default 4096)")
	fs.IntVar(&o.MbufPool, "mbuf-pool", 0, "mbuf-pool frames (0 = default 8192)")
	fs.IntVar(&o.ProcTable, "proc-table", 0, "process-table slots (0 = default 256)")
	fs.IntVar(&o.FDLimit, "fd-limit", 0, "per-process descriptor limit (0 = default 64)")
	fs.Float64Var(&f.MemSqueezeFrac, "mem-squeeze", 0, "mid-run squeeze: shrink effective memory by this fraction [0,1)")
	fs.Float64Var(&f.PoolSqueezeFrac, "pool-squeeze", 0, "mid-run squeeze: shrink effective pool capacities by this fraction [0,1)")
	fs.IntVar(&f.SqueezeAtTick, "squeeze-tick", 0, "10ms tick at which the squeeze lands (0 = default 50)")
	fs.IntVar(&f.SqueezeJitterTicks, "squeeze-jitter", 0, "max extra ticks of seeded jitter on the squeeze time (0 = none)")

	BindSampleFlags(fs, &o.Sampling, sample)
}

// BindSampleFlags binds the sampled-mode trio (see EXPERIMENTS.md, "Sampled
// runs"): -sample-period and -sample-window write s's fields, and the
// -sample switch, written to *on, says whether s applies at all.
func BindSampleFlags(fs *flag.FlagSet, s *Sampling, on *bool) {
	fs.Uint64Var(&s.Period, "sample-period", 200_000, "cycles per sampling period (with -sample)")
	fs.Uint64Var(&s.DetailWindow, "sample-window", 0, "detailed window per period in cycles (0 = period/10, with -sample)")
	fs.BoolVar(on, "sample", false, "sampled simulation: fast-forward with warming between detailed windows; percentage metrics stay comparable to full detail, raw counters do not")
}

// BindFlags binds the checkpoint and audit knobs of a supervised run (see
// CHECKPOINT.md).
func (s *Supervision) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.CheckpointPath, "checkpoint", "", "write a checkpoint here when the run finishes")
	fs.Uint64Var(&s.CheckpointEvery, "ckpt-every", 0, "also auto-checkpoint every N cycles (needs -checkpoint)")
	fs.Uint64Var(&s.AuditEvery, "audit", 0, "run the invariant auditor every N cycles (0 = off)")
}

// Profile is the -cpuprofile/-memprofile pair of the commands (see
// EXPERIMENTS.md, "Performance work").
type Profile struct {
	CPU, Mem string
}

// BindFlags binds the profile paths.
func (p *Profile) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
}

// Start begins CPU profiling when requested. The returned stop ends it and
// writes the heap profile; call it once the profiled work is done. Failures
// while stopping are reported on stderr.
func (p Profile) Start(stderr io.Writer) (stop func(), err error) {
	var cpu *os.File
	if p.CPU != "" {
		if cpu, err = os.Create(p.CPU); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if p.Mem == "" {
			return
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
		}
	}, nil
}
