package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/conflict"
)

var (
	u1 = conflict.Agent{TID: 1}
	u2 = conflict.Agent{TID: 2}
	k1 = conflict.Agent{TID: 1, Priv: true}
	k9 = conflict.Agent{TID: 9, Priv: true}
)

func small() *Cache {
	// 4 lines of 64B, 2-way: 2 sets.
	return New(Config{Name: "t", SizeBytes: 256, Ways: 2, LineShift: 6})
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x40, u1, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x40, u1, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x7f, u1, false) {
		t.Fatal("same-line access missed")
	}
	if c.Misses[0] != 1 || c.Accesses[0] != 3 {
		t.Fatalf("misses=%d accesses=%d", c.Misses[0], c.Accesses[0])
	}
}

func TestSetConflictAndLRU(t *testing.T) {
	c := small() // 2 sets: line addr parity selects set
	// Three lines mapping to set 0: line addresses 0, 2, 4 (×64).
	c.Access(0*64, u1, false)
	c.Access(2*64, u1, false)
	c.Access(0*64, u1, false) // refresh line 0
	c.Access(4*64, u1, false) // evicts line 2 (LRU)
	if !c.Probe(0 * 64) {
		t.Fatal("MRU line evicted")
	}
	if c.Probe(2 * 64) {
		t.Fatal("LRU line survived")
	}
	// Miss on line 2 again: intrathread conflict.
	c.Access(2*64, u1, false)
	if c.Causes.Counts[0][conflict.Intrathread] != 1 {
		t.Fatalf("intrathread = %d", c.Causes.Counts[0][conflict.Intrathread])
	}
}

func TestInterthreadAndUserKernelClassification(t *testing.T) {
	c := small()
	c.Access(0*64, u1, false)
	c.Access(2*64, u2, false)
	c.Access(4*64, u2, false) // u2 evicts u1's line 0
	c.Access(0*64, u1, false) // u1 misses: interthread
	if c.Causes.Counts[0][conflict.Interthread] != 1 {
		t.Fatalf("interthread = %d", c.Causes.Counts[0][conflict.Interthread])
	}
	// Kernel evicts user line; user remisses -> user-kernel.
	c.Access(6*64, k1, false) // set 1
	c.Access(1*64, u1, false)
	c.Access(3*64, u1, false)
	c.Access(5*64, k9, false) // evicts set-1 LRU (u1's 1*64... order matters)
	// Count at least one user-kernel miss after kernel interference:
	c.Access(1*64, u1, false)
	c.Access(3*64, u1, false)
	uk := c.Causes.Counts[0][conflict.UserKernel]
	if uk == 0 {
		t.Fatal("no user-kernel conflict recorded")
	}
}

func TestWritebackAccounting(t *testing.T) {
	c := small()
	c.Access(0*64, u1, true) // dirty
	c.Access(2*64, u1, false)
	c.Access(4*64, u1, false) // evicts dirty line 0
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Writebacks)
	}
}

func TestInvalidateRange(t *testing.T) {
	c := small()
	c.Access(0*64, u1, false)
	c.Access(1*64, u1, false)
	n := c.InvalidateRange(0, 128)
	if n != 2 {
		t.Fatalf("invalidated %d lines, want 2", n)
	}
	c.Access(0*64, u1, false)
	if c.Causes.Counts[0][conflict.Invalidation] != 1 {
		t.Fatal("post-invalidation miss not classified")
	}
}

func TestFlush(t *testing.T) {
	c := small()
	for i := uint64(0); i < 4; i++ {
		c.Access(i*64, u1, false)
	}
	if n := c.Flush(); n != 4 {
		t.Fatalf("flushed %d, want 4", n)
	}
	for i := uint64(0); i < 4; i++ {
		if c.Probe(i * 64) {
			t.Fatal("line survived flush")
		}
	}
}

func TestConstructiveSharing(t *testing.T) {
	c := small()
	c.Access(0x40, k1, false)
	c.Access(0x40, k9, false) // k9 saved by k1's fill
	if c.Shared.Avoided[1][1] != 1 {
		t.Fatalf("kernel-kernel avoided = %d", c.Shared.Avoided[1][1])
	}
	c.Access(0x40, k9, false) // second hit: not counted again
	if c.Shared.Total() != 1 {
		t.Fatalf("total shared = %d", c.Shared.Total())
	}
	c.Access(0x40, u2, false) // user saved by kernel fill
	if c.Shared.Avoided[0][1] != 1 {
		t.Fatalf("user-kernel avoided = %d", c.Shared.Avoided[0][1])
	}
}

func TestMissRates(t *testing.T) {
	c := small()
	c.Access(0x00, u1, false)
	c.Access(0x00, u1, false)
	if r := c.MissRate(false); r != 50 {
		t.Fatalf("user miss rate %.1f", r)
	}
	if r := c.MissRateOverall(); r != 50 {
		t.Fatalf("overall miss rate %.1f", r)
	}
	if c.MissRate(true) != 0 {
		t.Fatal("kernel rate should be 0 with no kernel accesses")
	}
}

func TestGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad geometry did not panic")
		}
	}()
	New(Config{Name: "bad", SizeBytes: 0, Ways: 1, LineShift: 6})
}

// TestNonPowerOfTwoSetsPanics: the set index is a mask, so a geometry of
// three sets (six 64-byte lines, two ways) is refused.
func TestNonPowerOfTwoSetsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 3-set cache did not panic")
		}
	}()
	New(Config{Name: "odd", SizeBytes: 6 * 64, Ways: 2, LineShift: 6})
}

// Property: any address is resident immediately after access.
func TestAccessMakesResident(t *testing.T) {
	c := New(Config{Name: "p", SizeBytes: 64 << 10, Ways: 2, LineShift: 6})
	f := func(addr uint64) bool {
		c.Access(addr, u1, false)
		return c.Probe(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyTiming(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	// Cold access: L1 miss + L2 miss -> memory.
	r := h.AccessD(0x1000, u1, false, 100)
	if !r.L1Miss || !r.L2Miss || r.Stall {
		t.Fatalf("cold access: %+v", r)
	}
	wantMin := uint64(100 + 2 + 20 + 4 + 90) // bus+L2+membus+mem (+fill)
	if r.Ready < wantMin {
		t.Fatalf("cold ready=%d < %d", r.Ready, wantMin)
	}
	// Hot access: L1 hit after fill completes.
	r2 := h.AccessD(0x1000, u1, false, r.Ready+1)
	if r2.L1Miss || r2.Ready != r.Ready+1+1 {
		t.Fatalf("hot access: %+v", r2)
	}
}

func TestHierarchyMSHRMerge(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	r1 := h.AccessD(0x2000, u1, false, 10)
	// Same line, different thread, while fill in flight: tag hit that
	// completes with the fill.
	r2 := h.AccessD(0x2010, u2, false, 12)
	if r2.L1Miss {
		t.Fatal("merged access counted as L1 miss")
	}
	if r2.Ready != r1.Ready {
		t.Fatalf("merge ready=%d, want %d", r2.Ready, r1.Ready)
	}
	if h.L1D.Shared.Total() != 1 {
		t.Fatal("merge not counted as constructive sharing")
	}
}

func TestHierarchyL2Hit(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	r1 := h.AccessD(0x3000, u1, false, 0)
	// Evict from tiny... L1 is 128KB/2-way = 1024 sets; to force an L1-only
	// miss, access two other lines mapping to the same set: stride =
	// sets*64 = 65536.
	h.AccessD(0x3000+65536, u1, false, r1.Ready)
	h.AccessD(0x3000+2*65536, u1, false, r1.Ready)
	r2 := h.AccessD(0x3000, u1, false, r1.Ready+500)
	if !r2.L1Miss || r2.L2Miss {
		t.Fatalf("expected L1 miss + L2 hit: %+v", r2)
	}
	if r2.Ready <= r1.Ready+500+uint64(1) {
		t.Fatal("L2 hit too fast")
	}
	maxWant := r1.Ready + 500 + uint64(2+20+2+5)
	if r2.Ready > maxWant {
		t.Fatalf("L2 hit too slow: %d > %d", r2.Ready, maxWant)
	}
}

func TestOmitPrivileged(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.OmitPrivileged = true
	r := h.AccessD(0x4000, k1, false, 0)
	if r.L1Miss || r.Stall {
		t.Fatal("privileged access touched hierarchy in omit mode")
	}
	if h.L1D.Accesses[1] != 0 {
		t.Fatal("privileged access recorded in omit mode")
	}
	r2 := h.AccessD(0x4000, u1, false, 0)
	if !r2.L1Miss {
		t.Fatal("user access should still miss")
	}
}

func TestMSHRFullStalls(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.MSHREntries = 2
	h := NewHierarchy(cfg)
	now := uint64(0)
	stalled := false
	for i := uint64(0); i < 8; i++ {
		r := h.AccessD(i*0x10000*4, u1, false, now)
		if r.Stall {
			stalled = true
			break
		}
	}
	if !stalled {
		t.Fatal("no stall with 2-entry MSHR and 8 concurrent misses")
	}
	if stalls, _ := h.MSHRCounts(); stalls[1] == 0 {
		t.Fatal("stall not counted")
	}
}

func TestAvgOutstanding(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.AccessD(0x5000, u1, false, 0)
	if h.AvgOutstanding("d", 100) <= 0 {
		t.Fatal("no outstanding-miss area recorded")
	}
	if h.AvgOutstanding("bogus", 100) != 0 || h.AvgOutstanding("d", 0) != 0 {
		t.Fatal("degenerate AvgOutstanding not 0")
	}
}

func TestStoreBuffer(t *testing.T) {
	sb := NewStoreBuffer(2)
	d1, ok := sb.Push(10)
	if !ok || d1 != 11 {
		t.Fatalf("push1: %d,%v", d1, ok)
	}
	d2, ok := sb.Push(10)
	if !ok || d2 != 12 {
		t.Fatalf("push2 drain=%d, want 12 (1/cycle drain)", d2)
	}
	if _, ok := sb.Push(10); ok {
		t.Fatal("push into full buffer succeeded")
	}
	if sb.FullStalls != 1 {
		t.Fatalf("FullStalls = %d", sb.FullStalls)
	}
	if sb.Occupancy(10) != 2 {
		t.Fatalf("occupancy = %d", sb.Occupancy(10))
	}
	// After drains complete, pushes succeed again.
	if _, ok := sb.Push(20); !ok {
		t.Fatal("push after drain failed")
	}
	if sb.Drained != 2 {
		t.Fatalf("drained = %d", sb.Drained)
	}
	if sb.Pushed != 3 {
		t.Fatalf("pushed = %d", sb.Pushed)
	}
}

func TestBusTransactionsCounted(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.AccessD(0x9000, u1, false, 0)
	h.AccessI(0xA000, u1, 0)
	if h.BusTransactions != 2 {
		t.Fatalf("bus transactions = %d, want 2", h.BusTransactions)
	}
}

// TestAccessDoesNotAllocate pins down that the Access/Probe hot path —
// including the shared locate decode — performs no heap allocation; the
// fast-forward warming path calls it every committed memory instruction.
func TestAccessDoesNotAllocate(t *testing.T) {
	c := New(Config{Name: "L1D", SizeBytes: 128 << 10, Ways: 2, LineShift: 6})
	addr := uint64(0)
	if n := testing.AllocsPerRun(1000, func() {
		c.Access(addr, u1, addr%3 == 0)
		c.Probe(addr ^ 0x4000)
		addr += 832 // stride through sets, mixing hits and misses
	}); n != 0 {
		t.Fatalf("Access/Probe allocated %.1f times per call", n)
	}
}

// BenchmarkCacheAccess measures the tag-lookup hot path so regressions in
// the shared locate path show up. The address stream wraps within capacity:
// after the first lap every access is a hit, which is the path both the
// detailed pipeline and fast-forward warming take most of the time.
func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "L1D", SizeBytes: 128 << 10, Ways: 2, LineShift: 6})
	b.ReportAllocs()
	addr := uint64(0)
	for i := 0; i < b.N; i++ {
		c.Access(addr, u1, i&7 == 0)
		addr = (addr + 832) % (128 << 10)
	}
}

// BenchmarkCacheProbe measures the read-only residency check. The timer
// reset matters: without it a b.N=1 round attributes the warming loop's
// allocations to the probe, which is allocation-free.
func BenchmarkCacheProbe(b *testing.B) {
	c := New(Config{Name: "L1D", SizeBytes: 128 << 10, Ways: 2, LineShift: 6})
	for a := uint64(0); a < 128<<10; a += 64 {
		c.Access(a, u1, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Probe(uint64(i) * 832 % (256 << 10))
	}
}

// BenchmarkHierarchyProbe measures the three-level residency check.
func BenchmarkHierarchyProbe(b *testing.B) {
	h := NewHierarchy(DefaultHierConfig())
	for a := uint64(0); a < 128<<10; a += 64 {
		h.WarmD(a, u1, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Probe(uint64(i) * 832 % (256 << 10))
	}
}

// TestHierarchyProbeDoesNotAllocate pins the zero-allocation property the
// //detlint:hot annotation promises: probing from a per-cycle audit loop
// must not create garbage.
func TestHierarchyProbeDoesNotAllocate(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	for a := uint64(0); a < 64<<10; a += 64 {
		h.WarmD(a, u1, a%128 == 0)
		h.WarmI(a, u1)
	}
	allocs := testing.AllocsPerRun(200, func() {
		h.Probe(0x1000)
		h.Probe(0xdead000)
	})
	if allocs != 0 {
		t.Fatalf("Hierarchy.Probe allocates %v times per run, want 0", allocs)
	}
}

// TestHierarchyProbeReportsResidency checks the probe against known fills.
func TestHierarchyProbeReportsResidency(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	h.WarmD(0x4000, u1, false)
	h.WarmI(0x8000, u1)
	if l1i, l1d, l2 := h.Probe(0x4000); l1i || !l1d || !l2 {
		t.Fatalf("Probe(0x4000) = (%v, %v, %v), want (false, true, true)", l1i, l1d, l2)
	}
	if l1i, l1d, l2 := h.Probe(0x8000); !l1i || l1d || !l2 {
		t.Fatalf("Probe(0x8000) = (%v, %v, %v), want (true, false, true)", l1i, l1d, l2)
	}
	if l1i, l1d, l2 := h.Probe(0xffff0000); l1i || l1d || l2 {
		t.Fatalf("Probe(0xffff0000) = (%v, %v, %v), want all false", l1i, l1d, l2)
	}
}

// TestLineSize pins the tag entry's size: an L2 keeps tens of thousands
// of them, scanned a set at a time on every access.
func TestLineSize(t *testing.T) {
	if n := unsafe.Sizeof(line{}); n > 32 {
		t.Fatalf("cache.line is %d bytes, want at most 32", n)
	}
}
