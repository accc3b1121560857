package kernel

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/sys"
	"repro/internal/workload"
)

func TestMunmapInvalidatesTLBAndCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	k, e := sim(t, cfg, pipeline.SMTConfig())
	addr := uint64(0x2_4000_0000)
	state := 0
	k.AddProgram(userProgram("p1", 1, 77, func(call int) workload.Step {
		switch state {
		case 0:
			state = 1
			return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
				Num: sys.SysSmmap, Resource: sys.ResMemory, Addr: addr,
			}}
		case 1:
			state = 2
			return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
				Num: sys.SysMunmap, Resource: sys.ResMemory, Addr: addr,
			}}
		default:
			return workload.Step{Kind: workload.StepRun, N: 500}
		}
	}))
	// Pre-map the page so the munmap has something to tear down.
	var th *Thread
	for _, x := range k.Threads() {
		if x.kind == tkUser {
			th = x
		}
	}
	paddr, _ := k.Mem.Touch(th.pid, addr)
	e.DTLB.Insert(th.asn, addr, paddr, agentFor(&pipeline.FedInst{TID: th.tid, ASN: th.asn}))
	e.Run(600_000)
	if k.SyscallCount[sys.SysMunmap] != 1 {
		t.Fatalf("munmap count %d", k.SyscallCount[sys.SysMunmap])
	}
	if _, ok := k.Mem.Translate(th.pid, addr); ok {
		t.Fatal("page still mapped after munmap")
	}
	if e.DTLB.Invalidations == 0 && e.ITLB.Invalidations == 0 {
		t.Fatal("munmap performed no TLB invalidation")
	}
}

func TestNetisrDrainsBatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 15_000
	k, e := sim(t, cfg, pipeline.SMTConfig())
	nic := &scriptNIC{arrivals: map[uint64][]Frame{}}
	// A burst of 12 connections on tick 2: more than one netisr batch.
	var burst []Frame
	for i := 0; i < 12; i++ {
		burst = append(burst, Frame{Conn: 100 + i, Bytes: 200, Open: true})
	}
	nic.arrivals[2] = burst
	k.SetNIC(nic)
	e.Run(900_000)
	if k.net.Delivered != 12 {
		t.Fatalf("delivered %d frames, want 12", k.net.Delivered)
	}
	ls := k.net.sock(ListenFD)
	if len(ls.acceptQ) != 12 {
		t.Fatalf("accept queue has %d conns", len(ls.acceptQ))
	}
}

func TestAckFramesAreProtocolWorkOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 15_000
	k, e := sim(t, cfg, pipeline.SMTConfig())
	nic := &scriptNIC{arrivals: map[uint64][]Frame{
		2: {{Conn: 5, Bytes: 100, Open: true}, {Conn: 5, Ack: true}},
	}}
	k.SetNIC(nic)
	e.Run(600_000)
	if k.net.Delivered != 2 {
		t.Fatalf("delivered %d", k.net.Delivered)
	}
	if k.net.Dropped != 0 {
		t.Fatalf("ack dropped: %d", k.net.Dropped)
	}
	// Exactly one socket created (the ack made no socket).
	if len(k.net.socks) != 2 { // listen + one conn
		t.Fatalf("%d sockets", len(k.net.socks))
	}
}

func TestHaltedSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	k, e := sim(t, cfg, pipeline.SMTConfig())
	_ = e
	// With no programs, every context is halted once its feed settles.
	for ctx := 0; ctx < cfg.Contexts; ctx++ {
		if !k.Halted(ctx) {
			t.Fatalf("empty machine context %d not halted", ctx)
		}
	}
	k.AddProgram(userProgram("p1", 1, 5, computeOnly(100000)))
	e.Run(50_000)
	halted := 0
	for ctx := 0; ctx < cfg.Contexts; ctx++ {
		if k.Halted(ctx) {
			halted++
		}
	}
	if halted != cfg.Contexts-1 {
		t.Fatalf("halted contexts = %d, want %d", halted, cfg.Contexts-1)
	}
}

func TestIdleSpinExecutesIdleLoop(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleSpin = true
	cfg.CyclesPer10ms = 1 << 40
	k, e := sim(t, cfg, pipeline.SMTConfig())
	k.AddProgram(userProgram("p1", 1, 5, computeOnly(1000)))
	e.Run(100_000)
	if e.Cycles.ByCat[sys.CatIdle] == 0 {
		t.Fatal("no idle cycles attributed")
	}
	// The spin loop retires instructions (Mode Idle contributes to user bin
	// of mix? idle mode is unprivileged); total retired far exceeds the
	// program's instructions.
	if e.Metrics.Retired < 50_000 {
		t.Fatalf("spinning idle retired only %d", e.Metrics.Retired)
	}
}

func TestAffinitySchedulerPrefersLastContext(t *testing.T) {
	cfg := DefaultConfig()
	cfg.AffinityScheduler = true
	cfg.Contexts = 2
	cfg.QuantumInsts = 1_000
	pcfg := pipeline.SMTConfig()
	pcfg.Contexts = 2
	k, e := sim(t, cfg, pcfg)
	for i := 0; i < 4; i++ {
		k.AddProgram(userProgram("p", i+1, uint64(40+i), computeOnly(800)))
	}
	e.Run(1_200_000)
	if k.ContextSwitches == 0 || k.Preemptions == 0 {
		t.Fatalf("no scheduling activity: sw=%d pre=%d", k.ContextSwitches, k.Preemptions)
	}
	// Sanity: everything still progresses deterministically.
	if e.Metrics.Retired == 0 {
		t.Fatal("nothing retired with affinity scheduler")
	}
}

func TestNetworkDMAOccupiesBus(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ModelNetworkDMA = true
	cfg.CyclesPer10ms = 20_000
	k, e := sim(t, cfg, pipeline.SMTConfig())
	nic := &scriptNIC{arrivals: map[uint64][]Frame{
		1: {{Conn: 1, Bytes: 100, Open: true}},
		2: {{Conn: 2, Bytes: 100, Open: true}},
	}}
	k.SetNIC(nic)
	before := e.Hier.BusTransactions
	e.Run(100_000)
	if e.Hier.BusTransactions <= before {
		t.Fatal("network DMA produced no bus transactions")
	}
}

func TestSyscallNamesAndResources(t *testing.T) {
	if sys.Name(sys.SysRead) != "read" || sys.Name(9999) == "" {
		t.Fatal("syscall naming broken")
	}
	if sys.ResNet.String() != "network" || sys.ResFile.String() != "file" ||
		sys.Resource(99).String() != "other" {
		t.Fatal("resource naming broken")
	}
	if sys.CatNetisr.String() != "netisr" || sys.Category(99).String() == "" {
		t.Fatal("category naming broken")
	}
}

func TestDynLenScalesWithBytes(t *testing.T) {
	small := dynLen(sys.Request{Num: sys.SysRead, Bytes: 1024})
	big := dynLen(sys.Request{Num: sys.SysRead, Bytes: 64 * 1024})
	if big <= small {
		t.Fatalf("dynLen not scaling: %d vs %d", small, big)
	}
	if dynLen(sys.Request{Num: 999}) <= 0 {
		t.Fatal("unknown syscall has no default cost")
	}
}

func TestConnOf(t *testing.T) {
	cfg := DefaultConfig()
	k := New(cfg)
	if k.ConnOf(ListenFD) != -1 {
		t.Fatal("listen socket should have no conn")
	}
	if k.ConnOf(12345) != -1 {
		t.Fatal("unknown fd should report -1")
	}
	k.deliverFrames([]Frame{{Conn: 42, Bytes: 10, Open: true}})
	fd, _ := k.net.byConn.Get(42)
	if k.ConnOf(fd) != 42 {
		t.Fatalf("ConnOf(%d) = %d, want 42", fd, k.ConnOf(fd))
	}
}

func TestSpinLockContention(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	k, e := sim(t, cfg, pipeline.SMTConfig())
	// Several processes hammering the same file-class lock.
	for i := 0; i < 6; i++ {
		k.AddProgram(userProgram("p", i+1, uint64(60+i), func(call int) workload.Step {
			if call%2 == 1 {
				return workload.Step{Kind: workload.StepRun, N: 200}
			}
			return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
				Num: sys.SysStat, Resource: sys.ResFile,
			}}
		}))
	}
	e.Run(2_500_000)
	if k.LockContentions == 0 || k.SpinInsts == 0 {
		t.Fatalf("no lock contention observed: cont=%d spin=%d", k.LockContentions, k.SpinInsts)
	}
	if e.Cycles.ByCat[sys.CatSpin] == 0 {
		t.Fatal("no spin cycles attributed")
	}
	// The paper's bound: spin-waiting stays a small share of cycles.
	if pct := e.Cycles.PctCat(sys.CatSpin); pct > 15 {
		t.Fatalf("spin share %.1f%% is implausibly high", pct)
	}
}

func TestDiskDriverPathOnCacheMiss(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	cfg.BufferCacheHitRate = 0 // every file read misses the buffer cache
	k, e := sim(t, cfg, pipeline.SMTConfig())
	k.AddProgram(userProgram("p1", 1, 71, func(call int) workload.Step {
		if call%2 == 1 {
			return workload.Step{Kind: workload.StepRun, N: 400}
		}
		return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
			Num: sys.SysRead, Bytes: 8192, Resource: sys.ResFile,
		}}
	}))
	before := e.Hier.BusTransactions
	e.Run(2_000_000)
	if k.DiskReads == 0 {
		t.Fatal("no disk-driver invocations with 0% buffer-cache hit rate")
	}
	if k.DiskReads != k.SyscallCount[sys.SysRead] {
		t.Fatalf("disk reads %d != file reads %d", k.DiskReads, k.SyscallCount[sys.SysRead])
	}
	if e.Hier.BusTransactions <= before {
		t.Fatal("disk DMA produced no memory-bus transactions")
	}
}

func TestBufferCacheHitRateRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BufferCacheHitRate = 1 // fully cached fileset: no disk traffic
	k, e := sim(t, cfg, pipeline.SMTConfig())
	k.AddProgram(userProgram("p1", 1, 72, func(call int) workload.Step {
		if call%2 == 1 {
			return workload.Step{Kind: workload.StepRun, N: 400}
		}
		return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{
			Num: sys.SysRead, Bytes: 4096, Resource: sys.ResFile,
		}}
	}))
	e.Run(1_000_000)
	if k.DiskReads != 0 {
		t.Fatalf("disk reads %d with a fully cached fileset", k.DiskReads)
	}
}

func TestPrewarmResetsSetupCounters(t *testing.T) {
	k := New(DefaultConfig())
	if k.Mem.MappedPages(0) == 0 {
		t.Fatal("booted kernel has no resident pages")
	}
	if k.Mem.Allocs != 0 || k.Mem.Refills != 0 {
		t.Fatalf("prewarm leaked setup counters: allocs=%d refills=%d", k.Mem.Allocs, k.Mem.Refills)
	}
}
