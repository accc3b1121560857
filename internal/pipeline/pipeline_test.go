package pipeline

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sys"
)

// testFeed is a scripted Feed: per-context instruction buffers with splice
// support, mimicking the contract the behavioral kernel implements.
type testFeed struct {
	e          *Engine
	bufs       [][]FedInst
	retired    [][]uint64
	traps      []trapRec
	interrupts map[uint64][]int
	// pauseAfterSyscall makes Span withhold everything past an unretired
	// syscall PALCall, and resume (with resumeInsts) when it retires.
	pauseAfterSyscall bool
	resumeInsts       []FedInst
	paused            []bool
}

type trapRec struct {
	ctx   int
	idx   uint64
	kind  TrapKind
	vaddr uint64
}

func newTestFeed(nctx int) *testFeed {
	return &testFeed{
		bufs:       make([][]FedInst, nctx),
		retired:    make([][]uint64, nctx),
		paused:     make([]bool, nctx),
		interrupts: map[uint64][]int{},
	}
}

func (f *testFeed) Span(ctx int, idx uint64) []FedInst {
	buf := f.bufs[ctx]
	end := uint64(len(buf))
	if f.paused[ctx] {
		// Anything after the first pending syscall is withheld.
		for i, in := range buf {
			if in.Class == isa.PALCall && in.Syscall != 0 {
				end = uint64(i) + 1
				break
			}
		}
	}
	if idx >= end {
		return nil
	}
	return buf[idx:end]
}

func (f *testFeed) Retired(ctx int, idx uint64, in *FedInst) {
	f.retired[ctx] = append(f.retired[ctx], idx)
	if in.Class == isa.PALCall && in.Syscall != 0 && f.pauseAfterSyscall {
		f.paused[ctx] = false
		f.bufs[ctx] = append(f.bufs[ctx], f.resumeInsts...)
	}
}

func (f *testFeed) Trap(ctx int, idx uint64, in *FedInst, kind TrapKind, vaddr uint64) {
	f.traps = append(f.traps, trapRec{ctx: ctx, idx: idx, kind: kind, vaddr: vaddr})
	switch kind {
	case TrapITLB:
		// Install the translation and splice a short PAL handler.
		f.e.ITLB.Insert(in.ASN, vaddr, f.Translate(in, vaddr), agentOf(in))
		f.splice(ctx, idx, palHandler(3))
	case TrapDTLB:
		f.e.DTLB.Insert(in.ASN, vaddr, f.Translate(in, vaddr), agentOf(in))
		f.splice(ctx, idx, palHandler(5))
	case TrapInterrupt:
		f.splice(ctx, idx, palHandler(4))
	}
}

func (f *testFeed) splice(ctx int, idx uint64, ins []FedInst) {
	buf := f.bufs[ctx]
	out := make([]FedInst, 0, len(buf)+len(ins))
	out = append(out, buf[:idx]...)
	out = append(out, ins...)
	out = append(out, buf[idx:]...)
	f.bufs[ctx] = out
}

func (f *testFeed) Cycle(now uint64) []int { return f.interrupts[now] }

func (f *testFeed) Halted(ctx int) bool { return false }

func (f *testFeed) Translate(in *FedInst, vaddr uint64) uint64 {
	// Deterministic page-granular hash, scattering frames the way a real
	// allocator does (a plain modulus would alias all contexts' code into
	// the same cache sets).
	vpn := vaddr >> 13
	frame := (vpn * 2654435761) % (1 << 13)
	return frame<<13 | (vaddr & 0x1fff)
}

// palHandler builds n PAL-mode ALU instructions.
func palHandler(n int) []FedInst {
	out := make([]FedInst, n)
	for i := range out {
		out[i] = FedInst{
			Inst: isa.Inst{
				PC:    mem.PALTextBase + uint64(i)*4,
				Class: isa.IntALU,
				Mode:  isa.PAL,
			},
			TID: 1000,
			Cat: sys.CatDTLB,
		}
	}
	return out
}

func userALU(pc uint64, dep uint16) FedInst {
	return FedInst{
		Inst: isa.Inst{PC: pc, Class: isa.IntALU, Mode: isa.User, Dep1: dep},
		TID:  1, ASN: 1, PID: 1, Cat: sys.CatUser,
	}
}

func build(t *testing.T, cfg Config, feed *testFeed) *Engine {
	t.Helper()
	e := New(cfg, feed, cache.NewHierarchy(cache.DefaultHierConfig()))
	feed.e = e
	return e
}

// fillALU populates ctx 0 with n independent ALU instructions at mapped PCs.
func fillALU(f *testFeed, ctx, n int) {
	for i := 0; i < n; i++ {
		f.bufs[ctx] = append(f.bufs[ctx], userALU(0x12000000+uint64(i)*4, 0))
	}
}

func TestSimpleRetirement(t *testing.T) {
	f := newTestFeed(8)
	fillALU(f, 0, 100)
	e := build(t, SMTConfig(), f)
	e.Run(1500)
	e.CheckInvariants()
	// 100 user instructions + 3 spliced ITLB-handler instructions.
	if e.Metrics.Retired != 103 {
		t.Fatalf("retired %d, want 103", e.Metrics.Retired)
	}
	// Retired in order.
	for i, idx := range f.retired[0] {
		if idx != uint64(i) {
			t.Fatalf("retire order broken at %d: idx=%d", i, idx)
		}
	}
	// ITLB cold-start trap must have fired once for the first line.
	if e.Metrics.ITLBTraps == 0 {
		t.Fatal("no ITLB trap on cold start")
	}
}

func TestDependenceChainsSlower(t *testing.T) {
	// Loop over a small PC footprint so fetch stays warm and execution
	// dominates.
	mkBuf := func(f *testFeed, dep uint16) {
		for i := 0; i < 2000; i++ {
			f.bufs[0] = append(f.bufs[0], userALU(0x12000000+uint64(i%64)*4, dep))
		}
	}
	fIndep := newTestFeed(8)
	mkBuf(fIndep, 0)
	eIndep := build(t, SMTConfig(), fIndep)
	eIndep.Run(1500)

	fChain := newTestFeed(8)
	mkBuf(fChain, 1)
	eChain := build(t, SMTConfig(), fChain)
	eChain.Run(1500)

	if eChain.Metrics.Retired >= eIndep.Metrics.Retired {
		t.Fatalf("dependent chain not slower: chain=%d indep=%d",
			eChain.Metrics.Retired, eIndep.Metrics.Retired)
	}
}

func TestLoadsAccessCache(t *testing.T) {
	f := newTestFeed(8)
	for i := 0; i < 50; i++ {
		in := userALU(0x12000000+uint64(i)*4, 0)
		in.Class = isa.Load
		in.Addr = 0x20000000 + uint64(i)*64
		f.bufs[0] = append(f.bufs[0], in)
	}
	e := build(t, SMTConfig(), f)
	e.Run(2000)
	e.CheckInvariants()
	// 50 loads + 3 ITLB-handler + 5 DTLB-handler instructions.
	if e.Metrics.Retired != 58 {
		t.Fatalf("retired %d, want 58", e.Metrics.Retired)
	}
	if got := e.Hier.L1D.Accesses[0]; got != 50 {
		t.Fatalf("L1D accesses = %d, want 50", got)
	}
	if e.Metrics.DTLBTraps == 0 {
		t.Fatal("no DTLB trap for unmapped loads")
	}
	// Handler code retired too (PAL instructions counted kernel).
	if e.Mix.Total(true) == 0 {
		t.Fatal("no privileged instructions retired")
	}
}

func TestStoresDrainThroughBuffer(t *testing.T) {
	f := newTestFeed(8)
	for i := 0; i < 40; i++ {
		in := userALU(0x12000000+uint64(i)*4, 0)
		in.Class = isa.Store
		in.Addr = 0x20000000 + uint64(i)*64
		f.bufs[0] = append(f.bufs[0], in)
	}
	e := build(t, SMTConfig(), f)
	e.Run(2000)
	if e.Metrics.Retired != 48 { // 40 stores + 3 ITLB + 5 DTLB handler insts
		t.Fatalf("retired %d, want 48", e.Metrics.Retired)
	}
	if e.Hier.L1D.Accesses[0] != 40 {
		t.Fatalf("store cache writes = %d, want 40", e.Hier.L1D.Accesses[0])
	}
	if e.SB.Pushed != 40 {
		t.Fatalf("store buffer pushes = %d, want 40", e.SB.Pushed)
	}
}

func TestMispredictionSquashes(t *testing.T) {
	f := newTestFeed(8)
	// ALUs, then a cold taken branch (must mispredict: BTB empty), then more.
	fillALU(f, 0, 10)
	br := userALU(0x12000000+10*4, 0)
	br.Class = isa.CondBranch
	br.Taken = true
	br.Target = 0x12000000 + 40*4
	f.bufs[0] = append(f.bufs[0], br)
	for i := 11; i < 60; i++ {
		f.bufs[0] = append(f.bufs[0], userALU(0x12000000+40*4+uint64(i)*4, 0))
	}
	e := build(t, SMTConfig(), f)
	e.Run(2000)
	e.CheckInvariants()
	if e.Metrics.Squashed == 0 {
		t.Fatal("mispredicted branch squashed nothing")
	}
	if e.Metrics.Retired != 63 { // 60 user + 3 ITLB handler insts
		t.Fatalf("retired %d, want 63", e.Metrics.Retired)
	}
	if e.Pred.Mispredicts[0] == 0 {
		t.Fatal("no mispredict recorded")
	}
	if e.Metrics.Fetched <= e.Metrics.Retired {
		t.Fatal("wrong-path fetches missing")
	}
}

func TestSyscallSerializes(t *testing.T) {
	f := newTestFeed(8)
	f.pauseAfterSyscall = true
	f.paused[0] = true
	fillALU(f, 0, 5)
	sc := userALU(0x12000000+5*4, 0)
	sc.Class = isa.PALCall
	sc.Syscall = uint16(sys.SysRead)
	sc.Target = mem.PALTextBase
	f.bufs[0] = append(f.bufs[0], sc)
	for i := 0; i < 7; i++ {
		f.resumeInsts = append(f.resumeInsts, userALU(0x12000000+uint64(100+i)*4, 0))
	}
	e := build(t, SMTConfig(), f)
	e.Run(2000)
	if e.Metrics.Retired != 16 { // 13 user + 3 ITLB handler insts
		t.Fatalf("retired %d, want 16", e.Metrics.Retired)
	}
	if e.Metrics.SyscallsSeen != 1 {
		t.Fatalf("syscalls seen = %d", e.Metrics.SyscallsSeen)
	}
}

func TestInterruptDelivery(t *testing.T) {
	f := newTestFeed(8)
	fillALU(f, 0, 200)
	f.interrupts[500] = []int{0}
	e := build(t, SMTConfig(), f)
	e.Run(2000)
	found := false
	for _, tr := range f.traps {
		if tr.kind == TrapInterrupt {
			found = true
		}
	}
	if !found || e.Metrics.Interrupts != 1 {
		t.Fatalf("interrupt not delivered: traps=%v n=%d", f.traps, e.Metrics.Interrupts)
	}
	// All user instructions plus the interrupt and ITLB handlers retire.
	if e.Metrics.Retired != 200+4+3 {
		t.Fatalf("retired %d, want 207", e.Metrics.Retired)
	}
}

func TestAppOnlyNoTraps(t *testing.T) {
	cfg := SMTConfig()
	cfg.AppOnly = true
	f := newTestFeed(8)
	for i := 0; i < 50; i++ {
		in := userALU(0x12000000+uint64(i)*4, 0)
		if i%2 == 0 {
			in.Class = isa.Load
			in.Addr = 0x20000000 + uint64(i)*4096
		}
		f.bufs[0] = append(f.bufs[0], in)
	}
	e := build(t, cfg, f)
	e.Run(3000)
	if len(f.traps) != 0 {
		t.Fatalf("app-only mode raised traps: %v", f.traps)
	}
	if e.Metrics.Retired != 50 {
		t.Fatalf("retired %d, want 50", e.Metrics.Retired)
	}
	// TLB misses still counted.
	if e.DTLB.Misses[0] == 0 {
		t.Fatal("app-only mode should still record DTLB misses")
	}
}

func TestMultiContextFairness(t *testing.T) {
	f := newTestFeed(8)
	for ctx := 0; ctx < 8; ctx++ {
		for i := 0; i < 500; i++ {
			// Offset each context within its page to avoid pathological
			// set-group aliasing of page-aligned hot loops.
			in := userALU(0x12000000+uint64(ctx)<<20+uint64(ctx)*1024+uint64(i%256)*4, 1)
			in.TID = uint32(ctx + 1)
			in.ASN = uint16(ctx + 1)
			f.bufs[ctx] = append(f.bufs[ctx], in)
		}
	}
	e := build(t, SMTConfig(), f)
	e.Run(8000)
	e.CheckInvariants()
	if e.Metrics.Retired != 8*(500+3) { // +3 ITLB handler insts per context
		t.Fatalf("retired %d, want 4024", e.Metrics.Retired)
	}
	for ctx := 0; ctx < 8; ctx++ {
		if len(f.retired[ctx]) != 503 {
			t.Fatalf("ctx %d retired %d", ctx, len(f.retired[ctx]))
		}
	}
	if e.Metrics.AvgFetchable() <= 0 {
		t.Fatal("no fetchable contexts recorded")
	}
}

func TestSMTFasterThanSuperscalarOnParallelWork(t *testing.T) {
	mk := func(cfg Config, nctx int) uint64 {
		f := newTestFeed(cfg.Contexts)
		for ctx := 0; ctx < nctx && ctx < cfg.Contexts; ctx++ {
			for i := 0; i < 20000; i++ {
				in := userALU(0x12000000+uint64(ctx)<<20+uint64(ctx)*1024+uint64(i%256)*4, 2)
				in.TID = uint32(ctx + 1)
				in.ASN = uint16(ctx + 1)
				f.bufs[ctx] = append(f.bufs[ctx], in)
			}
		}
		e := build(t, cfg, f)
		e.Run(6000)
		return e.Metrics.Retired
	}
	smt := mk(SMTConfig(), 8)
	ss := mk(SuperscalarConfig(), 1)
	if smt*2 <= ss*3 { // expect at least 1.5x on parallel integer work

		t.Fatalf("SMT throughput %d not >> superscalar %d", smt, ss)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Metrics, uint64) {
		f := newTestFeed(8)
		for ctx := 0; ctx < 4; ctx++ {
			for i := 0; i < 300; i++ {
				in := userALU(0x12000000+uint64(ctx)<<20+uint64(i)*4, uint16(i%3))
				in.TID = uint32(ctx + 1)
				if i%7 == 3 {
					in.Class = isa.Load
					in.Addr = 0x20000000 + uint64(ctx)<<22 + uint64(i)*256
				}
				f.bufs[ctx] = append(f.bufs[ctx], in)
			}
		}
		f.interrupts[200] = []int{1}
		e := build(t, SMTConfig(), f)
		e.Run(5000)
		return e.Metrics, e.Cycles.Total
	}
	m1, c1 := run()
	m2, c2 := run()
	if m1 != m2 || c1 != c2 {
		t.Fatalf("nondeterministic: %+v vs %+v", m1, m2)
	}
}

func TestCycleAttribution(t *testing.T) {
	f := newTestFeed(8)
	fillALU(f, 0, 100)
	e := build(t, SMTConfig(), f)
	e.Run(500)
	if e.Cycles.Total != 500*8 {
		t.Fatalf("context-cycles = %d, want 4000", e.Cycles.Total)
	}
	if e.Cycles.ByCat[sys.CatUser] == 0 {
		t.Fatal("no user cycles attributed")
	}
	if e.Cycles.ByCat[sys.CatIdle] == 0 {
		t.Fatal("idle contexts should attribute idle cycles")
	}
}

func TestInvariantsUnderStress(t *testing.T) {
	f := newTestFeed(8)
	for ctx := 0; ctx < 8; ctx++ {
		for i := 0; i < 400; i++ {
			in := userALU(0x12000000+uint64(ctx)<<20+uint64(i%97)*4, uint16(i%5))
			in.TID = uint32(ctx + 1)
			in.ASN = uint16(ctx + 1)
			switch i % 11 {
			case 1:
				in.Class = isa.Load
				in.Addr = 0x20000000 + uint64(i%13)*8192
			case 2:
				in.Class = isa.Store
				in.Addr = 0x20000000 + uint64(i%17)*4096
			case 3:
				in.Class = isa.CondBranch
				in.Taken = i%2 == 0
				in.Target = in.PC + 32
			case 4:
				in.Class = isa.FPALU
			}
			f.bufs[ctx] = append(f.bufs[ctx], in)
		}
	}
	f.interrupts[100] = []int{0, 3}
	f.interrupts[300] = []int{5}
	e := build(t, SMTConfig(), f)
	for i := 0; i < 50; i++ {
		e.Run(100)
		e.CheckInvariants()
	}
	if e.Metrics.Retired == 0 {
		t.Fatal("nothing retired under stress")
	}
}
