package kernel

import (
	"testing"

	"repro/internal/conflict"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/sys"
	"repro/internal/workload"
)

// TestAllocASNWraparound pins the allocator's wrap behavior: numbers run
// 1..MaxASN, wrap back to 1, and every post-wrap allocation invalidates the
// recycled ASN's TLB entries and counts a recycle.
func TestAllocASNWraparound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxASN = 4
	k, e := sim(t, cfg, pipeline.SMTConfig())

	want := []uint16{1, 2, 3, 4, 1, 2, 3, 4, 1}
	ag := conflict.Agent{TID: 1}
	for i, w := range want {
		if i == 4 {
			// Plant a translation under the ASN about to be recycled.
			e.ITLB.Insert(1, 0x1000, 0x2000, ag)
			e.DTLB.Insert(1, 0x3000, 0x4000, ag)
		}
		got := k.allocASN()
		if got != w {
			t.Fatalf("alloc %d: ASN %d, want %d", i, got, w)
		}
	}
	// The epoch flips on the allocation that wraps the counter (index 3),
	// so that call and every later one counts a recycle: indices 3..8.
	if k.ASNRecycles != 6 {
		t.Fatalf("ASNRecycles = %d, want 6", k.ASNRecycles)
	}
	if _, hit := e.ITLB.Lookup(1, 0x1000, ag); hit {
		t.Fatal("ITLB entry survived ASN recycling")
	}
	if _, hit := e.DTLB.Lookup(1, 0x3000, ag); hit {
		t.Fatal("DTLB entry survived ASN recycling")
	}
}

// workerProgram is a worker that alternates compute with a cheap syscall —
// giving the crash injector syscall boundaries to sample.
func workerProgram(name string, pid int, seed uint64) *workload.ScriptProgram {
	return userProgram(name, pid, seed, func(call int) workload.Step {
		if call%2 == 1 {
			return workload.Step{Kind: workload.StepRun, N: 2000}
		}
		return workload.Step{Kind: workload.StepSyscall,
			Req: sys.Request{Num: sys.SysGetpid}}
	})
}

// TestWorkerCrashTeardownAndRespawn: a crash at a syscall boundary runs the
// full involuntary-exit path — the thread exits, its address space is torn
// down at retirement (same path as a voluntary exit) — and the master forks
// a replacement worker that then runs.
func TestWorkerCrashTeardownAndRespawn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	k, e := sim(t, cfg, pipeline.SMTConfig())

	k.SetFaults(faults.NewInjector(faults.Config{Seed: 1, CrashRate: 1, MaxCrashes: 1}))
	respawns := 0
	k.SetRespawn(func() *workload.ScriptProgram {
		respawns++
		return workerProgram("respawned", 9, 77)
	})
	victim := k.AddWorker(workerProgram("worker", 1, 31))

	e.Run(1_500_000)
	e.CheckInvariants()

	if k.WorkerCrashes != 1 {
		t.Fatalf("WorkerCrashes = %d, want 1", k.WorkerCrashes)
	}
	if k.WorkerRespawns != 1 || respawns != 1 {
		t.Fatalf("WorkerRespawns = %d (factory calls %d), want 1", k.WorkerRespawns, respawns)
	}
	if victim.state != tsExited {
		t.Fatalf("crashed worker state = %v, want exited", victim.state)
	}
	if k.Mem.MappedPages(victim.pid) != 0 {
		t.Fatal("crashed worker's pages not released")
	}
	if k.SyscallCount[sys.SysExit] == 0 || k.SyscallCount[sys.SysFork] == 0 {
		t.Fatalf("exit/fork not accounted: exit=%d fork=%d",
			k.SyscallCount[sys.SysExit], k.SyscallCount[sys.SysFork])
	}
	// The replacement is a worker too, with its own pid and ASN, and it ran.
	var repl *Thread
	for _, th := range k.Threads() {
		if th.worker && th != victim {
			repl = th
		}
	}
	if repl == nil {
		t.Fatal("no replacement worker thread")
	}
	if repl.pid == victim.pid {
		t.Fatal("replacement reused the crashed worker's pid")
	}
	if repl.state == tsExited {
		t.Fatal("replacement exited")
	}
	if e.ThreadStats(repl.tid).Retired == 0 {
		t.Fatal("replacement worker never retired an instruction")
	}
}

// TestCrashReleasesHeldLocksAndSockets: a worker that dies owning a socket
// has it reaped (a Close goes out so the client learns) and held kernel
// locks are released.
func TestCrashReleasesHeldLocksAndSockets(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	k, _ := sim(t, cfg, pipeline.SMTConfig())
	nic := &scriptNIC{}
	k.SetNIC(nic)

	th := k.AddWorker(workerProgram("w", 1, 5))
	// Hand the worker an accepted socket and a held lock, then crash it.
	k.net.socks = append(k.net.socks, &socket{id: 1, conn: 42, owner: th.tid})
	k.net.linkOwned(th, k.net.socks[1])
	k.net.byConn.Put(42, 1)
	k.lockHolder[sys.ResFile] = th.tid

	k.SetFaults(faults.NewInjector(faults.Config{Seed: 1, CrashRate: 1, MaxCrashes: 1}))
	k.crashWorker(0, th)

	if k.lockHolder[sys.ResFile] == th.tid {
		t.Fatal("crashed worker still holds a lock")
	}
	s := k.net.socks[1]
	if !s.free {
		t.Fatal("owned socket not reaped and recycled")
	}
	if _, known := k.net.byConn.Get(42); known {
		t.Fatal("reaped connection still demuxable")
	}
	if len(k.net.sockFree) != 1 || k.net.sockFree[0] != 1 {
		t.Fatalf("reaped socket slot not on the free list: %v", k.net.sockFree)
	}
	if len(nic.sent) != 1 || !nic.sent[0].Close || nic.sent[0].Conn != 42 {
		t.Fatalf("no reset sent to the client: %+v", nic.sent)
	}
}

// TestNoCrashWithoutInjector: worker threads without a fault injector never
// take the crash path (zero perturbation).
func TestNoCrashWithoutInjector(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	k, e := sim(t, cfg, pipeline.SMTConfig())
	k.AddWorker(workerProgram("w", 1, 3))
	e.Run(400_000)
	if k.WorkerCrashes != 0 || k.WorkerRespawns != 0 {
		t.Fatalf("faults fired without an injector: crashes=%d respawns=%d",
			k.WorkerCrashes, k.WorkerRespawns)
	}
}
