package workload

import (
	"encoding/binary"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/sys"
)

func testProfile() Profile {
	return Profile{
		Name:        "test",
		Mode:        isa.User,
		StaticInsts: 2000,
		Mix: Mix{
			Load: 0.20, Store: 0.10, FP: 0.02,
			CondBr: 0.10, UncondBr: 0.03, IndirectJump: 0.02,
		},
		CondTaken:     0.55,
		LoopFrac:      0.3,
		MeanTrips:     20,
		CallFrac:      0.5,
		SwitchTargets: 4,
		Data: []DataSpec{
			{Size: 1 << 20, Hot: 64 << 10, Weight: 1, SeqFrac: 0.3, ColdFrac: 0.1},
		},
		MeanDep: 5,
	}
}

func flatLayout(i int, spec DataSpec) uint64 {
	return 0x2_0000_0000 + uint64(i)*0x1000_0000
}

func buildTest(t *testing.T, seed uint64) *Region {
	t.Helper()
	return Build(testProfile(), 0x1_2000_0000, flatLayout, rng.New(seed))
}

func TestBuildDeterministic(t *testing.T) {
	a, b := buildTest(t, 1), buildTest(t, 1)
	if len(a.Slots) != len(b.Slots) {
		t.Fatal("slot counts differ")
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			t.Fatalf("slot %d differs", i)
		}
	}
}

func TestWalkerDeterministic(t *testing.T) {
	reg := buildTest(t, 2)
	w1 := NewWalker(reg, rng.New(7))
	w2 := NewWalker(reg, rng.New(7))
	for i := 0; i < 5000; i++ {
		var a isa.Inst
		w1.NextInto(&a)
		var b isa.Inst
		w2.NextInto(&b)
		if a != b {
			t.Fatalf("walkers diverged at %d", i)
		}
	}
}

func TestWalkerPCsWithinRegion(t *testing.T) {
	reg := buildTest(t, 3)
	w := NewWalker(reg, rng.New(1))
	end := reg.Base + reg.Size()
	for i := 0; i < 20000; i++ {
		var in isa.Inst
		w.NextInto(&in)
		if in.PC < reg.Base || in.PC >= end {
			t.Fatalf("PC %#x outside region [%#x,%#x)", in.PC, reg.Base, end)
		}
		if in.ControlTransfer() && (in.Target < reg.Base || in.Target >= end) {
			t.Fatalf("target %#x outside region", in.Target)
		}
	}
}

func TestWalkerMixMatchesProfile(t *testing.T) {
	reg := buildTest(t, 4)
	w := NewWalker(reg, rng.New(2))
	counts := map[isa.Class]int{}
	n := 200000
	for i := 0; i < n; i++ {
		var in isa.Inst
		w.NextInto(&in)
		counts[in.Class]++
	}
	frac := func(c isa.Class) float64 { return float64(counts[c]) / float64(n) }
	// Dynamic mix tracks the static mix loosely (control flow biases it);
	// allow generous tolerances.
	if f := frac(isa.Load); f < 0.12 || f > 0.30 {
		t.Fatalf("load frac = %.3f", f)
	}
	if f := frac(isa.Store); f < 0.05 || f > 0.17 {
		t.Fatalf("store frac = %.3f", f)
	}
	if f := frac(isa.CondBranch); f < 0.04 || f > 0.20 {
		t.Fatalf("cond frac = %.3f", f)
	}
	// FP presence depends on whether the dynamic walk reaches the sparse
	// FP sites; the share is checked statically instead.
	fp := 0
	for _, sl := range reg.Slots {
		if sl.Kind == isa.FPALU {
			fp++
		}
	}
	if fp == 0 {
		t.Fatal("no FP slots generated")
	}
}

func TestWalkerAddressesWithinData(t *testing.T) {
	reg := buildTest(t, 5)
	w := NewWalker(reg, rng.New(3))
	d := reg.Data[0]
	for i := 0; i < 50000; i++ {
		var in isa.Inst
		w.NextInto(&in)
		if !in.Class.IsMem() {
			continue
		}
		if in.Addr < d.Base || in.Addr >= d.Base+d.Size {
			t.Fatalf("addr %#x outside region [%#x,%#x)", in.Addr, d.Base, d.Base+d.Size)
		}
		if in.Physical {
			t.Fatal("non-physical region produced physical access")
		}
	}
}

func TestPhysicalRegions(t *testing.T) {
	p := testProfile()
	p.Mode = isa.Kernel
	p.PhysFrac = 0.5
	p.Data = append(p.Data, DataSpec{Size: 1 << 20, Physical: true, Weight: 1})
	reg := Build(p, 0x1000, flatLayout, rng.New(9))
	w := NewWalker(reg, rng.New(9))
	phys, virt := 0, 0
	for i := 0; i < 100000; i++ {
		var in isa.Inst
		w.NextInto(&in)
		if !in.Class.IsMem() {
			continue
		}
		if in.Physical {
			phys++
		} else {
			virt++
		}
	}
	if phys == 0 || virt == 0 {
		t.Fatalf("phys=%d virt=%d; want both nonzero", phys, virt)
	}
	ratio := float64(phys) / float64(phys+virt)
	if ratio < 0.3 || ratio > 0.7 {
		t.Fatalf("physical fraction %.2f, want ~0.5", ratio)
	}
}

func TestLoopBranchDeterministicTrips(t *testing.T) {
	reg := &Region{
		Name: "loop", Base: 0x1000, Mode: isa.User,
		Slots: []Slot{
			{Kind: isa.IntALU},
			{Kind: isa.CondBranch, Target: 0, Trips: 3},
			{Kind: isa.IntALU},
		},
	}
	w := NewWalker(reg, rng.New(1))
	var seq []bool
	for i := 0; i < 16; i++ {
		var in isa.Inst
		w.NextInto(&in)
		if in.Class == isa.CondBranch {
			seq = append(seq, in.Taken)
		}
	}
	// Trips=3: taken, taken, not-taken, repeating.
	want := []bool{true, true, false, true, true, false}
	for i, v := range want {
		if i >= len(seq) {
			t.Fatalf("only %d branch executions", len(seq))
		}
		if seq[i] != v {
			t.Fatalf("trip %d = %v, want %v (seq %v)", i, seq[i], v, seq[:i+1])
		}
	}
}

func TestCallReturnMatching(t *testing.T) {
	reg := &Region{
		Name: "callret", Base: 0x1000, Mode: isa.User,
		Slots: []Slot{
			{Kind: isa.UncondBranch, Target: 2, IsCall: true}, // 0: call f
			{Kind: isa.IntALU},                    // 1: after call
			{Kind: isa.IntALU},                    // 2: f body
			{Kind: isa.IndirectJump, IsRet: true}, // 3: return
		},
	}
	w := NewWalker(reg, rng.New(1))
	var in isa.Inst
	w.NextInto(&in) // call
	if in.Class != isa.UncondBranch || in.Target != reg.PCOf(2) {
		t.Fatalf("call wrong: %+v", in)
	}
	w.NextInto(&in) // f body
	if in.PC != reg.PCOf(2) {
		t.Fatalf("did not enter function: pc=%#x", in.PC)
	}
	w.NextInto(&in) // return
	if in.Class != isa.IndirectJump || in.Target != reg.PCOf(1) {
		t.Fatalf("return target %#x, want %#x", in.Target, reg.PCOf(1))
	}
	w.NextInto(&in)
	if in.PC != reg.PCOf(1) {
		t.Fatalf("did not resume after call: pc=%#x", in.PC)
	}
}

func TestIndirectRotation(t *testing.T) {
	reg := &Region{
		Name: "switch", Base: 0, Mode: isa.Kernel,
		Slots: make([]Slot, 100),
	}
	for i := range reg.Slots {
		reg.Slots[i] = Slot{Kind: isa.IntALU}
	}
	reg.Slots[0] = Slot{Kind: isa.IndirectJump, Target: 10, NumTargets: 3}
	w := NewWalker(reg, rng.New(1))
	seen := map[uint64]bool{}
	for i := 0; i < 4000; i++ {
		var in isa.Inst
		w.NextInto(&in)
		if in.PC == 0 && in.Class == isa.IndirectJump {
			seen[in.Target] = true
		}
	}
	if len(seen) < 3 {
		t.Fatalf("indirect produced %d targets, want >= 3", len(seen))
	}
}

func TestScriptProgram(t *testing.T) {
	reg := buildTest(t, 9)
	calls := 0
	var gotReq sys.Request
	p := &ScriptProgram{
		ProgName: "x",
		W:        NewWalker(reg, rng.New(1)),
		NextFn: func() Step {
			calls++
			if calls == 1 {
				return Step{Kind: StepRun, N: 100}
			}
			return Step{Kind: StepExit}
		},
		ResultFn: func(req sys.Request, result int) { gotReq = req },
	}
	if p.Name() != "x" || p.Walker() == nil {
		t.Fatal("accessors broken")
	}
	if s := p.Next(); s.Kind != StepRun || s.N != 100 {
		t.Fatalf("step1 = %+v", s)
	}
	if s := p.Next(); s.Kind != StepExit {
		t.Fatalf("step2 = %+v", s)
	}
	p.OnSyscallResult(sys.Request{Num: sys.SysRead}, 10)
	if gotReq.Num != sys.SysRead {
		t.Fatal("result callback not invoked")
	}
	p.ResultFn = nil
	p.OnSyscallResult(sys.Request{}, 0) // must not panic
}

func TestBuildPanicsOnEmptyProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-size profile")
		}
	}()
	Build(Profile{Name: "bad"}, 0, flatLayout, rng.New(1))
}

func TestBuildPanicsOnMemWithoutData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for memory ops without data regions")
		}
	}()
	Build(Profile{Name: "bad", StaticInsts: 10, Mix: Mix{Load: 0.5}}, 0, flatLayout, rng.New(1))
}

func TestStreamRegionsMarchThroughWholeRegion(t *testing.T) {
	reg := &Region{
		Name: "stream", Base: 0x1000, Mode: isa.Kernel,
		Slots: []Slot{
			{Kind: isa.Load, Data: 0, Pattern: PatSeq, Stride: 8},
		},
		Data: []DataRegion{
			{Base: 0x100000, Size: 1 << 20, Hot: 4096, Stream: true},
		},
	}
	w := NewWalker(reg, rng.New(1))
	maxAddr := uint64(0)
	for i := 0; i < 100000; i++ {
		var in isa.Inst
		w.NextInto(&in)
		if in.Addr > maxAddr {
			maxAddr = in.Addr
		}
	}
	if maxAddr-0x100000 <= 4096 {
		t.Fatalf("stream stayed within hot window: max offset %d", maxAddr-0x100000)
	}
}

func TestNonStreamSeqWrapsHotWindow(t *testing.T) {
	reg := &Region{
		Name: "loopbuf", Base: 0x1000, Mode: isa.User,
		Slots: []Slot{
			{Kind: isa.Load, Data: 0, Pattern: PatSeq, Stride: 8},
		},
		Data: []DataRegion{
			{Base: 0x100000, Size: 1 << 20, Hot: 4096},
		},
	}
	w := NewWalker(reg, rng.New(1))
	for i := 0; i < 10000; i++ {
		var in isa.Inst
		w.NextInto(&in)
		if in.Addr >= 0x100000+4096 {
			t.Fatalf("loop-style seq escaped the hot window: %#x", in.Addr)
		}
	}
}

func TestResetEveryRestartsWalk(t *testing.T) {
	reg := buildTest(t, 21)
	w := NewWalker(reg, rng.New(4))
	w.ResetEvery = 500
	sawBaseAfterReset := false
	for i := 0; i < 2000; i++ {
		var in isa.Inst
		w.NextInto(&in)
		if i > 500 && in.PC == reg.Base {
			sawBaseAfterReset = true
			break
		}
	}
	if !sawBaseAfterReset {
		t.Fatal("walk never returned to slot 0 after ResetEvery")
	}
}

func TestHardBranchFracProducesWeakSites(t *testing.T) {
	p := testProfile()
	p.HardBranchFrac = 1.0 // every non-loop conditional is a hard site
	reg := Build(p, 0x1000, flatLayout, rng.New(31))
	weak := 0
	total := 0
	for _, sl := range reg.Slots {
		if sl.Kind == isa.CondBranch && sl.Trips == 0 {
			total++
			if sl.TakenBias >= 0.3 && sl.TakenBias <= 0.7 {
				weak++
			}
		}
	}
	if total == 0 || weak != total {
		t.Fatalf("hard sites %d of %d conditionals", weak, total)
	}
}

// TestWalkerResetPhaseAcrossRestore pins the derived reset phase: a walker
// saved just before, at and just after a reset point and restored into a
// fresh walker continues exactly like one that was never interrupted.
func TestWalkerResetPhaseAcrossRestore(t *testing.T) {
	const r, k = 300, 3
	reg := buildTest(t, 22)
	walker := func() *Walker {
		w := NewWalker(reg, rng.New(5))
		w.ResetEvery = r
		return w
	}
	ref := walker()
	var want []isa.Inst
	for i := 0; i < (k+1)*r+1+3*r; i++ {
		var in isa.Inst
		ref.NextInto(&in)
		want = append(want, in)
	}
	for _, cut := range []int{k*r - 1, k * r, k*r + 1} {
		w := walker()
		for i := 0; i < cut; i++ {
			w.NextInto(&isa.Inst{})
		}
		var e checkpoint.Codec
		w.Sync(&e)
		fresh := NewWalker(reg, rng.New(99))
		d := checkpoint.NewReader("walker", e.Bytes())
		fresh.Sync(&d)
		if err := d.Finish(); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		for i := 0; i < 3*r; i++ {
			var got isa.Inst
			fresh.NextInto(&got)
			if got != want[cut+i] {
				t.Fatalf("cut %d: instruction %d after restore is %+v, want %+v", cut, i, got, want[cut+i])
			}
		}
	}
}

// TestWalkerLoadRejectsPositionPastSlots damages a walker section so its
// position equals the slot count: Load must refuse it rather than leave a
// walker whose next instruction indexes past the region.
func TestWalkerLoadRejectsPositionPastSlots(t *testing.T) {
	reg := buildTest(t, 23)
	var e checkpoint.Codec
	NewWalker(reg, rng.New(1)).Sync(&e)
	raw := e.Bytes()
	_, n := binary.Varint(raw) // the position is the section's first field
	damaged := binary.AppendVarint(nil, int64(len(reg.Slots)))
	damaged = append(damaged, raw[n:]...)
	w := NewWalker(reg, rng.New(1))
	d := checkpoint.NewReader("walker", damaged)
	w.Sync(&d)
	if d.Err() == nil {
		t.Fatalf("a walker position of %d over %d slots loaded without error", len(reg.Slots), len(reg.Slots))
	}
}
