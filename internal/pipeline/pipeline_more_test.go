package pipeline

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
)

func TestROBSizeMustBePowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two ROB accepted")
		}
	}()
	cfg := SMTConfig()
	cfg.ROBSize = 48
	New(cfg, newTestFeed(8), cache.NewHierarchy(cache.DefaultHierConfig()))
}

func TestRenameRegisterLimitStallsDispatch(t *testing.T) {
	// 2000 dependent-on-nothing ALU ops across 8 contexts: in-flight
	// reg-consuming uops must never exceed IntRegs.
	cfg := SMTConfig()
	cfg.IntRegs = 10
	f := newTestFeed(8)
	for ctx := 0; ctx < 8; ctx++ {
		for i := 0; i < 200; i++ {
			in := userALU(0x12000000+uint64(ctx)<<20+uint64(i%64)*4, 0)
			in.TID = uint32(ctx + 1)
			in.ASN = uint16(ctx + 1)
			f.bufs[ctx] = append(f.bufs[ctx], in)
		}
	}
	e := build(t, cfg, f)
	for i := 0; i < 50; i++ {
		e.Run(100)
		e.CheckInvariants() // includes reg accounting vs limit consistency
		if e.intRegsUsed > cfg.IntRegs {
			t.Fatalf("int regs in use %d > limit %d", e.intRegsUsed, cfg.IntRegs)
		}
	}
	if e.Metrics.Retired == 0 {
		t.Fatal("nothing retired under tight rename limit")
	}
}

func TestIssueQueueCapacityRespected(t *testing.T) {
	cfg := SMTConfig()
	cfg.IntQueueSize = 4
	f := newTestFeed(8)
	fillALU(f, 0, 300)
	e := build(t, cfg, f)
	for i := 0; i < 40; i++ {
		e.Run(50)
		if e.intQ.occupancy() > cfg.IntQueueSize {
			t.Fatalf("int queue holds %d > %d", e.intQ.occupancy(), cfg.IntQueueSize)
		}
	}
}

func TestRetireWidthCap(t *testing.T) {
	cfg := SMTConfig()
	cfg.RetireWidth = 3
	f := newTestFeed(8)
	for ctx := 0; ctx < 4; ctx++ {
		for i := 0; i < 300; i++ {
			in := userALU(0x12000000+uint64(ctx)<<20+uint64(i%64)*4, 0)
			in.TID = uint32(ctx + 1)
			f.bufs[ctx] = append(f.bufs[ctx], in)
		}
	}
	e := build(t, cfg, f)
	prev := uint64(0)
	for i := 0; i < 400; i++ {
		e.Run(1)
		d := e.Metrics.Retired - prev
		prev = e.Metrics.Retired
		if d > 3 {
			t.Fatalf("retired %d in one cycle with width 3", d)
		}
	}
}

func TestFPQueueAndUnits(t *testing.T) {
	f := newTestFeed(8)
	for i := 0; i < 100; i++ {
		in := userALU(0x12000000+uint64(i%64)*4, 0)
		if i%2 == 0 {
			in.Class = isa.FPALU
		}
		f.bufs[0] = append(f.bufs[0], in)
	}
	e := build(t, SMTConfig(), f)
	e.Run(3000)
	if e.Metrics.FPIssued == 0 {
		t.Fatal("no FP instructions issued")
	}
	if e.Metrics.Retired != 100+3 { // +ITLB handler
		t.Fatalf("retired %d", e.Metrics.Retired)
	}
	if e.fpRegsUsed != 0 {
		t.Fatalf("fp regs leaked: %d", e.fpRegsUsed)
	}
}

func TestSyncOpsUseSyncUnits(t *testing.T) {
	f := newTestFeed(8)
	for i := 0; i < 60; i++ {
		in := userALU(0x12000000+uint64(i%64)*4, 0)
		if i%3 == 0 {
			in.Class = isa.Sync
			in.Addr = 0x20000000 + uint64(i)*64
		}
		f.bufs[0] = append(f.bufs[0], in)
	}
	e := build(t, SMTConfig(), f)
	e.Run(4000)
	if e.Metrics.Retired < 60 {
		t.Fatalf("retired %d", e.Metrics.Retired)
	}
	if e.Hier.L1D.Accesses[0] == 0 {
		t.Fatal("sync ops never accessed the data cache")
	}
}

func TestRoundRobinFetchRuns(t *testing.T) {
	cfg := SMTConfig()
	cfg.RoundRobinFetch = true
	f := newTestFeed(8)
	for ctx := 0; ctx < 8; ctx++ {
		for i := 0; i < 200; i++ {
			in := userALU(0x12000000+uint64(ctx)<<20+uint64(ctx)*1024+uint64(i%128)*4, 1)
			in.TID = uint32(ctx + 1)
			in.ASN = uint16(ctx + 1)
			f.bufs[ctx] = append(f.bufs[ctx], in)
		}
	}
	e := build(t, cfg, f)
	e.Run(6000)
	e.CheckInvariants()
	if e.Metrics.Retired != 8*(200+3) {
		t.Fatalf("retired %d under round-robin fetch", e.Metrics.Retired)
	}
}

func TestSuperscalarShorterFrontEnd(t *testing.T) {
	smt, ss := SMTConfig(), SuperscalarConfig()
	if ss.Depth >= smt.Depth {
		t.Fatal("superscalar pipeline not shorter")
	}
	if ss.Contexts != 1 || ss.IntUnits != smt.IntUnits || ss.IntRegs != smt.IntRegs {
		t.Fatal("superscalar must differ only in contexts and depth")
	}
}

func TestTrapKindStrings(t *testing.T) {
	if TrapDTLB.String() != "dtlb" || TrapITLB.String() != "itlb" ||
		TrapInterrupt.String() != "interrupt" || TrapKind(9).String() == "" {
		t.Fatal("trap kind strings wrong")
	}
}

func TestMetricsHelpersEmpty(t *testing.T) {
	var m Metrics
	if m.IPC() != 0 || m.SquashPct() != 0 || m.AvgFetchable() != 0 || m.PctCycles(5) != 0 {
		t.Fatal("zero metrics should report zeros")
	}
}

func TestStoreBufferBackpressure(t *testing.T) {
	cfg := SMTConfig()
	hcfg := cache.DefaultHierConfig()
	hcfg.StoreBufferEntries = 2
	f := newTestFeed(8)
	for i := 0; i < 50; i++ {
		in := userALU(0x12000000+uint64(i%32)*4, 0)
		in.Class = isa.Store
		in.Addr = 0x20000000 + uint64(i%8)*64
		f.bufs[0] = append(f.bufs[0], in)
	}
	e := New(cfg, f, cache.NewHierarchy(hcfg))
	f.e = e
	e.Run(4000)
	if e.Metrics.Retired < 50 {
		t.Fatalf("retired %d with tiny store buffer", e.Metrics.Retired)
	}
	if e.Metrics.RetireStallSB == 0 {
		t.Fatal("tiny store buffer never stalled retirement")
	}
}

func TestICOUNTPrefersEmptierContext(t *testing.T) {
	// Context 0 gets long-latency dependent loads (clogs its ROB); context
	// 1 gets cheap ALU work. ICOUNT should give ctx 1 the fetch slots, so
	// it retires far more.
	f := newTestFeed(8)
	for i := 0; i < 400; i++ {
		in := userALU(0x12000000+uint64(i%64)*4, 1)
		in.Class = isa.Load
		in.Addr = 0x20000000 + uint64(i)*8192 // new page per load: slow
		f.bufs[0] = append(f.bufs[0], in)
	}
	for i := 0; i < 4000; i++ {
		in := userALU(0x12100000+1024+uint64(i%64)*4, 0)
		in.TID = 2
		in.ASN = 2
		f.bufs[1] = append(f.bufs[1], in)
	}
	e := build(t, SMTConfig(), f)
	e.Run(15_000)
	slow := len(f.retired[0])
	fast := len(f.retired[1])
	if fast < slow*3 {
		t.Fatalf("ICOUNT did not shield the fast context: slow=%d fast=%d", slow, fast)
	}
}

func TestWrongPathPollutesFetchPath(t *testing.T) {
	// A tight loop around one always-mispredicting branch (alternating
	// direction defeats a cold predictor long enough) must fetch more than
	// it retires, and the extra fetches must touch the I-cache.
	f := newTestFeed(8)
	for i := 0; i < 400; i++ {
		in := userALU(0x12000000+uint64(i%32)*4, 0)
		if i%8 == 7 {
			in.Class = isa.CondBranch
			in.Taken = (i/8)%2 == 0
			in.Target = in.PC + 64
		}
		f.bufs[0] = append(f.bufs[0], in)
	}
	e := build(t, SMTConfig(), f)
	e.Run(10_000)
	if e.Metrics.Squashed == 0 {
		t.Fatal("no wrong-path instructions")
	}
	if e.Metrics.Fetched <= e.Metrics.Retired+e.Metrics.Squashed-1 &&
		e.Metrics.Fetched < e.Metrics.Retired {
		t.Fatalf("fetch accounting wrong: fetched=%d retired=%d squashed=%d",
			e.Metrics.Fetched, e.Metrics.Retired, e.Metrics.Squashed)
	}
	// Wrong-path PCs extend past the loop's 2 lines.
	if e.Hier.L1I.Accesses[0] == 0 {
		t.Fatal("no instruction-cache activity")
	}
}

func TestPerThreadStats(t *testing.T) {
	f := newTestFeed(8)
	for ctx := 0; ctx < 2; ctx++ {
		for i := 0; i < 200; i++ {
			in := userALU(0x12000000+uint64(ctx)<<20+uint64(ctx)*1024+uint64(i%64)*4, 0)
			in.TID = uint32(ctx + 1)
			in.ASN = uint16(ctx + 1)
			f.bufs[ctx] = append(f.bufs[ctx], in)
		}
	}
	e := build(t, SMTConfig(), f)
	e.Run(8_000)
	s1, s2 := e.ThreadStats(1), e.ThreadStats(2)
	if s1.Retired != 200 || s2.Retired != 200 { // handler insts carry their own TID
		t.Fatalf("per-thread retired: %d / %d, want 200 each", s1.Retired, s2.Retired)
	}
	if s1.CtxCycles == 0 || s2.CtxCycles == 0 {
		t.Fatal("no per-thread cycles attributed")
	}
	if e.ThreadStats(9999).Retired != 0 {
		t.Fatal("unknown thread has stats")
	}
}
