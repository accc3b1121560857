package kernel

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/rng"
	"repro/internal/sys"
	"repro/internal/workload"
)

// userProgram builds a small looping user program that computes and issues
// the scripted syscalls.
func userProgram(name string, pid int, seed uint64, script func(call int) workload.Step) *workload.ScriptProgram {
	prof := workload.Profile{
		Name:        name,
		Mode:        isa.User,
		StaticInsts: 3000,
		Mix: workload.Mix{
			Load: 0.2, Store: 0.1,
			CondBr: 0.1, UncondBr: 0.03, IndirectJump: 0.02,
		},
		CondTaken: 0.55, LoopFrac: 0.3, MeanTrips: 15,
		CallFrac: 0.5, SwitchTargets: 4,
		Data: []workload.DataSpec{
			{Size: 256 << 10, Hot: 64 << 10, Weight: 1, SeqFrac: 0.3, ColdFrac: 0.1},
		},
		MeanDep: 5,
	}
	base := uint64(mem.UserTextBase) + uint64(pid)*mem.PIDStride
	layout := func(i int, spec workload.DataSpec) uint64 {
		return uint64(mem.UserDataBase) + uint64(pid)*mem.PIDStride + uint64(i)*0x1000_0000
	}
	r := rng.New(seed)
	reg := workload.Build(prof, base, layout, r)
	calls := 0
	return &workload.ScriptProgram{
		ProgName: name,
		W:        workload.NewWalker(reg, r.Split(2)),
		NextFn: func() workload.Step {
			calls++
			return script(calls)
		},
	}
}

func computeOnly(n uint64) func(int) workload.Step {
	return func(int) workload.Step { return workload.Step{Kind: workload.StepRun, N: n} }
}

// sim couples a kernel and engine for tests.
func sim(t *testing.T, cfg Config, pcfg pipeline.Config) (*Kernel, *pipeline.Engine) {
	t.Helper()
	k := New(cfg)
	e := pipeline.New(pcfg, k, cache.NewHierarchy(cache.DefaultHierConfig()))
	k.AttachEngine(e)
	return k, e
}

func TestComputeProgramRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 50_000
	k, e := sim(t, cfg, pipeline.SMTConfig())
	k.AddProgram(userProgram("p1", 1, 7, computeOnly(5000)))
	e.Run(300_000)
	e.CheckInvariants()
	if e.Metrics.Retired < 10_000 {
		t.Fatalf("retired only %d", e.Metrics.Retired)
	}
	if e.Mix.Total(false) == 0 {
		t.Fatal("no user instructions retired")
	}
	if e.Mix.Total(true) == 0 {
		t.Fatal("no kernel instructions retired (TLB handlers expected)")
	}
	if e.Metrics.DTLBTraps == 0 || e.Metrics.ITLBTraps == 0 {
		t.Fatalf("no TLB traps: d=%d i=%d", e.Metrics.DTLBTraps, e.Metrics.ITLBTraps)
	}
	if k.ClockInterrupts == 0 {
		t.Fatal("no clock interrupts")
	}
	// Other contexts idle.
	if e.Cycles.ByCat[sys.CatIdle] == 0 {
		t.Fatal("no idle cycles on unused contexts")
	}
}

func TestSyscallsExecuteKernelCode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40 // no interrupts
	k, e := sim(t, cfg, pipeline.SMTConfig())
	k.AddProgram(userProgram("p1", 1, 9, func(call int) workload.Step {
		if call%2 == 1 {
			return workload.Step{Kind: workload.StepRun, N: 800}
		}
		return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
			Num: sys.SysRead, Bytes: 8192, Resource: sys.ResFile,
		}}
	}))
	e.Run(2_000_000)
	if k.SyscallCount[sys.SysRead] < 3 {
		t.Fatalf("only %d reads serviced", k.SyscallCount[sys.SysRead])
	}
	if e.Metrics.SyscallsSeen == 0 {
		t.Fatal("pipeline saw no syscall instructions")
	}
	if e.Cycles.ByCat[sys.CatSyscall] == 0 {
		t.Fatal("no cycles attributed to syscalls")
	}
	if e.Cycles.BySyscall[sys.SysRead] == 0 {
		t.Fatal("no cycles attributed to read")
	}
	// Kernel mode should dominate the busy context: each read costs ~6.7k
	// kernel instructions vs 800 user (the other 7 contexts sit idle, so
	// compare within non-idle cycles).
	nonIdle := e.Cycles.Total - e.Cycles.ByCat[sys.CatIdle]
	kern := e.Cycles.ByMode[isa.Kernel] + e.Cycles.ByMode[isa.PAL]
	if nonIdle == 0 || float64(kern)/float64(nonIdle) < 0.4 {
		t.Fatalf("kernel share of busy cycles = %d/%d, expected high", kern, nonIdle)
	}
}

func TestMultiprogramSchedulingAndPreemption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 100_000
	cfg.QuantumInsts = 2_000
	pcfg := pipeline.SMTConfig()
	pcfg.Contexts = 2
	cfg.Contexts = 2
	k, e := sim(t, cfg, pcfg)
	var ths []*Thread
	for i := 0; i < 6; i++ {
		ths = append(ths, k.AddProgram(userProgram("p", i+1, uint64(20+i), computeOnly(1000))))
	}
	e.Run(1_500_000)
	if k.Preemptions == 0 {
		t.Fatal("no preemptions with 6 programs on 2 contexts")
	}
	if k.ContextSwitches == 0 {
		t.Fatal("no context switches")
	}
	_ = ths
	if e.Cycles.ByCat[sys.CatSched] == 0 {
		t.Fatal("no scheduler cycles")
	}
}

func TestExitReleasesResources(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	k, e := sim(t, cfg, pipeline.SMTConfig())
	done := false
	k.AddProgram(userProgram("p1", 1, 31, func(call int) workload.Step {
		if call == 1 {
			return workload.Step{Kind: workload.StepRun, N: 3000}
		}
		done = true
		return workload.Step{Kind: workload.StepExit}
	}))
	e.Run(800_000)
	if !done {
		t.Fatal("program never reached exit")
	}
	if k.SyscallCount[sys.SysExit] != 1 {
		t.Fatalf("exit count = %d", k.SyscallCount[sys.SysExit])
	}
	var exited *Thread
	for _, th := range k.Threads() {
		if th.kind == tkUser {
			exited = th
		}
	}
	if exited.state != tsExited {
		t.Fatal("thread not exited")
	}
	if k.Mem.MappedPages(exited.pid) != 0 {
		t.Fatal("pages not released on exit")
	}
}

// scriptNIC injects frames at fixed ticks.
type scriptNIC struct {
	arrivals map[uint64][]Frame // keyed by tick count
	ticks    uint64
	sent     []Frame
}

func (n *scriptNIC) Tick(now uint64) []Frame {
	n.ticks++
	return n.arrivals[n.ticks]
}

func (n *scriptNIC) Transmit(fr Frame, now uint64) { n.sent = append(n.sent, fr) }

func TestNetworkAcceptReadWrite(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 20_000
	k, e := sim(t, cfg, pipeline.SMTConfig())
	nic := &scriptNIC{arrivals: map[uint64][]Frame{
		2: {{Conn: 100, Bytes: 300, Open: true}},
	}}
	k.SetNIC(nic)

	var fd int
	state := 0
	k.AddProgram(userProgram("srv", 1, 44, func(call int) workload.Step {
		switch state {
		case 0:
			state = 1
			return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
				Num: sys.SysAccept, Resource: sys.ResNet, FD: ListenFD, Blocking: true,
			}}
		case 2:
			state = 3
			return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
				Num: sys.SysRead, Resource: sys.ResNet, FD: fd, Blocking: true,
			}}
		case 4:
			state = 5
			return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
				Num: sys.SysWritev, Resource: sys.ResNet, FD: fd, Bytes: 4096,
			}}
		default:
			return workload.Step{Kind: workload.StepRun, N: 500}
		}
	}))
	// Advance program state from syscall results.
	prog := k.Threads()[len(k.Threads())-1].prog
	prog.ResultFn = func(req sys.Request, result int) {
		switch req.Num {
		case sys.SysAccept:
			fd = result
			state = 2
		case sys.SysRead:
			if result != 300 {
				t.Errorf("read result = %d, want 300", result)
			}
			state = 4
		}
	}

	e.Run(1_500_000)
	if k.NetInterrupts == 0 {
		t.Fatal("no network interrupts")
	}
	if k.net.Delivered == 0 {
		t.Fatal("no frames delivered by netisr")
	}
	if e.Cycles.ByCat[sys.CatNetisr] == 0 {
		t.Fatal("no netisr cycles attributed")
	}
	if state < 5 {
		t.Fatalf("server stalled in state %d", state)
	}
	if len(nic.sent) == 0 || nic.sent[0].Bytes != 4096 {
		t.Fatalf("response not transmitted: %v", nic.sent)
	}
}

func TestAppOnlyModeNoKernelInstructions(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AppOnly = true
	cfg.CyclesPer10ms = 50_000
	pcfg := pipeline.SMTConfig()
	pcfg.AppOnly = true
	k, e := sim(t, cfg, pcfg)
	k.AddProgram(userProgram("p1", 1, 55, func(call int) workload.Step {
		if call%3 == 0 {
			return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
				Num: sys.SysRead, Bytes: 4096, Resource: sys.ResFile,
			}}
		}
		return workload.Step{Kind: workload.StepRun, N: 1000}
	}))
	e.Run(100_000)
	if e.Mix.Total(true) != 0 {
		t.Fatalf("app-only mode retired %d kernel instructions", e.Mix.Total(true))
	}
	if k.SyscallCount[sys.SysRead] == 0 {
		t.Fatal("syscalls not serviced instantly")
	}
	if e.Metrics.Retired == 0 {
		t.Fatal("nothing retired")
	}
	if e.Metrics.DTLBTraps != 0 || e.Metrics.ITLBTraps != 0 {
		t.Fatal("app-only mode trapped")
	}
}

func TestDeterministicSimulation(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		cfg := DefaultConfig()
		cfg.CyclesPer10ms = 30_000
		k, e := sim(t, cfg, pipeline.SMTConfig())
		for i := 0; i < 3; i++ {
			k.AddProgram(userProgram("p", i+1, uint64(70+i), func(call int) workload.Step {
				if call%4 == 0 {
					return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
						Num: sys.SysStat, Resource: sys.ResFile,
					}}
				}
				return workload.Step{Kind: workload.StepRun, N: 700}
			}))
		}
		e.Run(150_000)
		return e.Metrics.Retired, e.Cycles.ByMode[isa.Kernel], e.Metrics.Squashed
	}
	r1, km1, sq1 := run()
	r2, km2, sq2 := run()
	if r1 != r2 || km1 != km2 || sq1 != sq2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", r1, km1, sq1, r2, km2, sq2)
	}
}

func TestASNRecycling(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxASN = 4
	k, e := sim(t, cfg, pipeline.SMTConfig())
	for i := 0; i < 10; i++ {
		k.AddProgram(userProgram("p", i+1, uint64(100+i), computeOnly(100)))
	}
	_ = e
	if k.ASNRecycles == 0 {
		t.Fatal("no ASN recycling with MaxASN=4 and 10 processes")
	}
	// ASNs stay within range.
	for _, th := range k.Threads() {
		if th.kind == tkUser && (th.asn == 0 || th.asn > 4) {
			t.Fatalf("ASN %d out of range", th.asn)
		}
	}
}
