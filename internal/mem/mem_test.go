package mem

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
)

func TestNewMemoryRejectsTiny(t *testing.T) {
	if _, err := NewMemory(100); err == nil {
		t.Fatal("expected error for sub-page memory")
	}
}

func TestTouchThenTranslate(t *testing.T) {
	m, err := NewMemory(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	va := uint64(UserDataBase + 0x1234)
	if _, ok := m.Translate(5, va); ok {
		t.Fatal("unmapped address translated")
	}
	pa, kind := m.Touch(5, va)
	if kind != FaultPageAlloc {
		t.Fatalf("first touch kind = %v, want page-alloc", kind)
	}
	if pa&PageMask != va&PageMask {
		t.Fatal("page offset not preserved")
	}
	pa2, ok := m.Translate(5, va)
	if !ok || pa2 != pa {
		t.Fatalf("Translate = %#x,%v; want %#x,true", pa2, ok, pa)
	}
	// Second touch is a refill only.
	_, kind = m.Touch(5, va+8)
	if kind != FaultNone {
		t.Fatalf("second touch kind = %v, want tlb-refill", kind)
	}
	if m.Allocs != 1 || m.Refills != 1 {
		t.Fatalf("counters: allocs=%d refills=%d", m.Allocs, m.Refills)
	}
}

func TestProcessIsolation(t *testing.T) {
	m, _ := NewMemory(1 << 20)
	va := uint64(UserDataBase + 0x40)
	pa1, _ := m.Touch(1, va)
	pa2, _ := m.Touch(2, va)
	if pa1 == pa2 {
		t.Fatal("two processes share a frame for the same user vaddr")
	}
}

func TestKernelRegionShared(t *testing.T) {
	m, _ := NewMemory(1 << 20)
	va := uint64(KernelTextBase + 0x100)
	pa1, _ := m.Touch(1, va)
	pa2, kind := m.Touch(2, va)
	if pa1 != pa2 {
		t.Fatal("kernel address not shared across processes")
	}
	if kind != FaultNone {
		t.Fatal("second process touching shared kernel page should refill")
	}
}

func TestReclaimUnderPressure(t *testing.T) {
	// 16 frames total.
	m, _ := NewMemory(16 * PageSize)
	for i := uint64(0); i < 16; i++ {
		if _, kind := m.Touch(1, UserDataBase+i*PageSize); kind != FaultPageAlloc {
			t.Fatalf("frame %d: kind %v", i, kind)
		}
	}
	_, kind := m.Touch(1, UserDataBase+16*PageSize)
	if kind != FaultReclaim {
		t.Fatalf("kind = %v, want page-reclaim", kind)
	}
	// The oldest page (index 0) should have been evicted.
	if _, ok := m.Translate(1, UserDataBase); ok {
		t.Fatal("oldest page still mapped after reclaim")
	}
	if m.Reclaims != 1 {
		t.Fatalf("Reclaims = %d", m.Reclaims)
	}
}

func TestUnmapAndReuse(t *testing.T) {
	m, _ := NewMemory(1 << 20)
	va := uint64(UserDataBase)
	m.Touch(3, va)
	if !m.Unmap(3, va) {
		t.Fatal("Unmap failed")
	}
	if m.Unmap(3, va) {
		t.Fatal("double Unmap succeeded")
	}
	if _, ok := m.Translate(3, va); ok {
		t.Fatal("unmapped page still translates")
	}
	inUse := m.FramesInUse()
	m.Touch(3, va+PageSize)
	if m.FramesInUse() != inUse+1 {
		t.Fatal("freed frame not reused from free list accounting")
	}
}

func TestReleaseProcess(t *testing.T) {
	m, _ := NewMemory(1 << 20)
	for i := uint64(0); i < 10; i++ {
		m.Touch(7, UserDataBase+i*PageSize)
	}
	m.Touch(7, KernelTextBase) // kernel page must survive
	if n := m.ReleaseProcess(7); n != 10 {
		t.Fatalf("released %d pages, want 10", n)
	}
	if m.MappedPages(7) != 0 {
		t.Fatal("user pages remain after release")
	}
	if _, ok := m.Translate(7, KernelTextBase); !ok {
		t.Fatal("kernel page lost on process release")
	}
}

func TestReleaseKernelPIDIsNoop(t *testing.T) {
	m, _ := NewMemory(1 << 20)
	m.Touch(1, KernelTextBase)
	if n := m.ReleaseProcess(KernelPID); n != 0 {
		t.Fatalf("released %d kernel pages", n)
	}
}

// Property: translation is stable and offset-preserving for any address,
// and two touches of the same page yield the same frame.
func TestTranslateProperties(t *testing.T) {
	m, _ := NewMemory(1 << 22)
	f := func(off uint32, pidSel uint8) bool {
		pid := uint64(pidSel%4) + 1
		va := UserDataBase + uint64(off)
		pa1, _ := m.Touch(pid, va)
		pa2, ok := m.Translate(pid, va)
		if !ok || pa1 != pa2 {
			return false
		}
		if pa1&PageMask != va&PageMask {
			return false
		}
		paSame, _ := m.Touch(pid, (va&^uint64(PageMask))|0x7)
		return paSame>>PageShift == pa1>>PageShift
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestIsKernelAddr(t *testing.T) {
	if IsKernelAddr(UserTextBase) || IsKernelAddr(UserStackBase) {
		t.Fatal("user address classified as kernel")
	}
	if !IsKernelAddr(KernelTextBase) || !IsKernelAddr(PALTextBase) || !IsKernelAddr(KernelDataBase) {
		t.Fatal("kernel address not classified as kernel")
	}
}

func TestFaultKindString(t *testing.T) {
	if FaultNone.String() != "tlb-refill" || FaultPageAlloc.String() != "page-alloc" ||
		FaultReclaim.String() != "page-reclaim" {
		t.Fatal("FaultKind strings wrong")
	}
	if FaultKind(9).String() == "" {
		t.Fatal("unknown kind should stringify")
	}
}

func TestExhaustionRecyclesForever(t *testing.T) {
	m, _ := NewMemory(8 * PageSize)
	for i := uint64(0); i < 100; i++ {
		m.Touch(1, UserDataBase+i*PageSize)
	}
	if m.FramesInUse() > 8 {
		t.Fatalf("in use %d > 8 frames", m.FramesInUse())
	}
	if m.Reclaims == 0 {
		t.Fatal("no reclaims recorded under heavy pressure")
	}
}

// Regression (ReleaseProcess vs shared text): a shared text frame mapped by
// live processes is pinned — reclaim must never evict it, even when one of
// the sharing processes has exited and heavy pressure forces every private
// page through the reclaimer.
func TestReclaimNeverEvictsSharedText(t *testing.T) {
	m, _ := NewMemory(16 * PageSize)
	base := uint64(UserTextBase)
	m.ShareRange(base, 2*PageSize)
	m.Touch(1, base)          // shared text, charged to KernelPID
	m.Touch(1, base+PageSize) // second shared text page
	m.Touch(2, base)          // pid 2 maps the same frames (refill)
	sharedPA, ok := m.Translate(2, base)
	if !ok {
		t.Fatal("shared text not mapped")
	}
	// pid 1 exits; pid 2 lives on, still executing the shared text.
	for i := uint64(0); i < 4; i++ {
		m.Touch(1, UserDataBase+i*PageSize)
	}
	m.ReleaseProcess(1)
	// Drive far more private allocations through pid 2 than there are
	// frames, forcing reclaim to cycle the whole paged pool repeatedly.
	for i := uint64(0); i < 64; i++ {
		m.Touch(2, UserDataBase+PIDStride+i*PageSize)
	}
	if m.Reclaims == 0 {
		t.Fatal("pressure loop never reclaimed")
	}
	pa, ok := m.Translate(2, base)
	if !ok {
		t.Fatal("shared text frame evicted while still mapped by a live process")
	}
	if pa != sharedPA {
		t.Fatalf("shared text moved: %#x -> %#x", sharedPA, pa)
	}
}

// Regression (ReleaseProcess determinism): released frames re-enter the
// free list in sorted frame order regardless of map iteration order, and
// feed subsequent allocations LIFO from that order.
func TestReleaseProcessFreeOrderDeterministic(t *testing.T) {
	alloc := func() (*Memory, []uint64) {
		m, _ := NewMemory(1 << 20)
		// Interleave two processes so pid 9's frames are non-contiguous.
		for i := uint64(0); i < 6; i++ {
			m.Touch(9, UserDataBase+i*PageSize)
			m.Touch(4, UserDataBase+i*PageSize)
		}
		m.ReleaseProcess(9)
		return m, m.FreeFrames()
	}
	m1, f1 := alloc()
	_, f2 := alloc()
	if len(f1) != 6 {
		t.Fatalf("free list has %d frames, want 6", len(f1))
	}
	for i := 1; i < len(f1); i++ {
		if f1[i-1] >= f1[i] {
			t.Fatalf("free list not sorted: %v", f1)
		}
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("free order differs across identical runs: %v vs %v", f1, f2)
		}
	}
	// The next allocation must consume the highest freed frame (LIFO).
	want := f1[len(f1)-1]
	pa, _ := m1.Touch(11, UserDataBase)
	if pa>>PageShift != want {
		t.Fatalf("reused frame %d, want %d", pa>>PageShift, want)
	}
}

// Second chance: a page referenced after its first queue pass survives the
// next reclaim scan; the unreferenced one behind it is evicted instead.
func TestSecondChanceSparesReferencedPage(t *testing.T) {
	m, _ := NewMemory(4 * PageSize)
	for i := uint64(0); i < 4; i++ {
		m.Touch(1, UserDataBase+i*PageSize)
	}
	// First overflow: one full clearing pass, then page 0 is evicted.
	m.Touch(1, UserDataBase+4*PageSize)
	if _, ok := m.Translate(1, UserDataBase); ok {
		t.Fatal("page 0 should have been evicted")
	}
	// Re-reference page 1 (sets its ref bit); page 2 stays cold.
	m.Touch(1, UserDataBase+1*PageSize)
	m.Touch(1, UserDataBase+5*PageSize)
	if _, ok := m.Translate(1, UserDataBase+1*PageSize); !ok {
		t.Fatal("referenced page evicted despite second chance")
	}
	if _, ok := m.Translate(1, UserDataBase+2*PageSize); ok {
		t.Fatal("cold page 2 should have been the victim")
	}
	if m.SecondChances == 0 {
		t.Fatal("no second chances recorded")
	}
}

func TestFrameLimitCapsUsage(t *testing.T) {
	m, _ := NewMemory(1 << 20) // 128 frames
	m.Touch(1, KernelTextBase) // kernel resident set: 1 page
	applied := m.SetFrameLimit(80)
	if applied != 80 {
		t.Fatalf("applied limit %d, want 80", applied)
	}
	for i := uint64(0); i < 120; i++ {
		m.Touch(1, UserDataBase+i*PageSize)
	}
	// In use may exceed the limit only by the reclaimer's staged batch.
	if got := m.FramesInUse(); got > 80 {
		t.Fatalf("frames in use %d exceeds limit 80", got)
	}
	if m.Reclaims == 0 {
		t.Fatal("limit pressure produced no reclaims")
	}
	if m.nextFrame >= m.frames {
		t.Fatal("bump pointer ran to the physical wall despite the limit")
	}
	// The floor clamp refuses a limit below kernel RSS + minUserFrames.
	if got := m.SetFrameLimit(1); got != m.RSS(KernelPID)+minUserFrames {
		t.Fatalf("floor clamp applied %d", got)
	}
	if m.SetFrameLimit(0) != 0 || m.FrameLimit() != 0 {
		t.Fatal("limit removal failed")
	}
}

func TestRSSAccounting(t *testing.T) {
	m, _ := NewMemory(1 << 20)
	m.ShareRange(UserTextBase, 2*PageSize)
	m.Touch(5, UserTextBase) // charged to KernelPID
	for i := uint64(0); i < 8; i++ {
		m.Touch(5, UserDataBase+i*PageSize)
	}
	if got := m.RSS(5); got != 8 {
		t.Fatalf("RSS(5) = %d, want 8", got)
	}
	if got := m.RSS(KernelPID); got != 1 {
		t.Fatalf("kernel RSS = %d, want 1", got)
	}
	if m.RSSHighwater != 8 {
		t.Fatalf("RSSHighwater = %d, want 8", m.RSSHighwater)
	}
	m.Unmap(5, UserDataBase)
	if got := m.RSS(5); got != 7 {
		t.Fatalf("RSS(5) after unmap = %d, want 7", got)
	}
	m.ReleaseProcess(5)
	if got := m.RSS(5); got != 0 {
		t.Fatalf("RSS(5) after release = %d, want 0", got)
	}
	// Sum of RSS entries equals frames in use.
	var sum uint64
	for _, e := range m.RSSEntries() {
		sum += e.Pages
	}
	if sum != m.FramesInUse() {
		t.Fatalf("RSS sum %d != frames in use %d", sum, m.FramesInUse())
	}
}

func TestTakeEvictionsDrains(t *testing.T) {
	m, _ := NewMemory(4 * PageSize)
	for i := uint64(0); i < 5; i++ {
		m.Touch(1, UserDataBase+i*PageSize)
	}
	evs := m.TakeEvictions()
	if len(evs) != 1 {
		t.Fatalf("%d evictions recorded, want 1", len(evs))
	}
	if evs[0].PID != 1 || evs[0].VPN != VPN(UserDataBase) {
		t.Fatalf("eviction = %+v, want pid 1 vpn of page 0", evs[0])
	}
	if m.TakeEvictions() != nil {
		t.Fatal("second TakeEvictions not empty")
	}
}

func TestSnapshotRoundTripPressureState(t *testing.T) {
	m, _ := NewMemory(8 * PageSize)
	m.SetFrameLimit(7)
	for i := uint64(0); i < 12; i++ {
		m.Touch(3, UserDataBase+i*PageSize)
	}
	var s, s2 checkpoint.Codec
	m.Sync(&s)
	m2, _ := NewMemory(8 * PageSize)
	d := checkpoint.NewReader("mem", s.Bytes())
	m2.Sync(&d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	// Identical state must produce identical sections and identical
	// behavior on the next pressure event.
	if m2.Sync(&s2); !bytes.Equal(s.Bytes(), s2.Bytes()) {
		t.Fatalf("section round trip differs:\n%x\n%x", s.Bytes(), s2.Bytes())
	}
	pa1, k1 := m.Touch(3, UserDataBase+20*PageSize)
	pa2, k2 := m2.Touch(3, UserDataBase+20*PageSize)
	if pa1 != pa2 || k1 != k2 {
		t.Fatalf("post-restore divergence: %#x/%v vs %#x/%v", pa1, k1, pa2, k2)
	}
}

func TestSharedRange(t *testing.T) {
	m, _ := NewMemory(1 << 20)
	base := uint64(UserTextBase)
	m.ShareRange(base, 4*PageSize)
	pa1, _ := m.Touch(1, base+100)
	pa2, kind := m.Touch(2, base+100)
	if pa1 != pa2 {
		t.Fatal("shared range not shared across processes")
	}
	if kind != FaultNone {
		t.Fatal("second process should refill, not allocate")
	}
	// Outside the range stays private.
	p1, _ := m.Touch(1, base+10*PageSize)
	p2, _ := m.Touch(2, base+10*PageSize)
	if p1 == p2 {
		t.Fatal("private pages shared")
	}
}

// ReleaseProcess appends the process's frames to the free list in
// ascending frame order, after the frames already free: the order a sorted
// list of the process's frames appended to the list gives.
func TestReleaseProcessAppendsSortedTail(t *testing.T) {
	m, _ := NewMemory(1 << 20)
	var pfns []uint64
	for i := uint64(0); i < 12; i++ {
		for _, pid := range []uint64{5, 6} {
			pa, _ := m.Touch(pid, UserDataBase+i*PageSize)
			if pid == 5 {
				pfns = append(pfns, pa>>PageShift)
			}
		}
	}
	m.Unmap(6, UserDataBase+3*PageSize)
	m.Unmap(6, UserDataBase)
	want := append(m.FreeFrames(), pfns...)
	slices.Sort(want[len(want)-len(pfns):])
	if n := m.ReleaseProcess(5); n != len(pfns) {
		t.Fatalf("released %d frames, want %d", n, len(pfns))
	}
	if got := m.FreeFrames(); !slices.Equal(got, want) {
		t.Fatalf("free list %v, want %v", got, want)
	}
}
