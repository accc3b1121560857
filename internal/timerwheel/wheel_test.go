package timerwheel

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFireOrder pins the contract: ids fire at their exact deadline,
// grouped by deadline, FIFO within one deadline, and a rescheduled id
// fires once, at its new deadline.
func TestFireOrder(t *testing.T) {
	w := New(0, 8)
	w.Schedule(3, 1)
	w.Schedule(1, 2)
	w.Schedule(3, 3)
	w.Schedule(2, 4)
	w.Schedule(1, 5)
	w.Schedule(1, 6)
	w.Schedule(3, 6) // moved: fires at 3, after 1 and 3
	w.Schedule(1, 2) // its own deadline: keeps its place
	var got [][]int32
	for tick := uint64(1); tick <= 3; tick++ {
		got = append(got, slices.Clone(w.Advance(tick)))
	}
	want := [][]int32{{2, 5}, {4}, {1, 3, 6}}
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Fatalf("fired %v by tick, want %v", got, want)
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", w.Len())
	}
}

// TestPastDeadlineClamps pins that a deadline at or before now fires at the
// next advance, like a missed full-scan condition would.
func TestPastDeadlineClamps(t *testing.T) {
	w := New(10, 9)
	w.Schedule(10, 7) // == now
	w.Schedule(3, 8)  // < now
	if w.Due(7) != 11 || w.Due(8) != 11 {
		t.Fatalf("clamped deadlines %d, %d, want 11", w.Due(7), w.Due(8))
	}
	fired := w.Advance(11)
	if !slices.Equal(fired, []int32{7, 8}) {
		t.Fatalf("fired %v, want ids 7,8 at tick 11", fired)
	}
	if w.Due(7) != 0 || w.Due(8) != 0 {
		t.Fatalf("fired ids still due at %d, %d", w.Due(7), w.Due(8))
	}
}

// TestCascadeBoundaries exercises deadlines straddling every level boundary
// plus the overflow horizon, advancing tick by tick as the simulators do.
func TestCascadeBoundaries(t *testing.T) {
	deadlines := []uint64{
		1, 255, 256, 257, 511, 512, 513,
		65_535, 65_536, 65_537,
		1 << 24, 1<<24 + 1, 1<<24 - 1,
	}
	w := New(0, len(deadlines))
	for i, d := range deadlines {
		w.Schedule(d, int32(i))
	}
	fired := map[uint64][]int32{}
	// Jump in big strides (Advance handles multi-tick catch-up) across the
	// interesting region, then verify every deadline fired exactly once at
	// its own tick: each stride ends on a deadline, so an id fired by the
	// stride to cp is due at cp.
	checkpoints := slices.Clone(deadlines)
	slices.Sort(checkpoints)
	for _, cp := range checkpoints {
		fired[cp] = append(fired[cp], w.Advance(cp)...)
	}
	for i, d := range deadlines {
		found := false
		for _, id := range fired[d] {
			if id == int32(i) {
				found = true
			}
		}
		if !found {
			t.Errorf("deadline %d (id %d) never fired; fired map %v", d, i, fired)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after all deadlines, want 0", w.Len())
	}
}

// TestAgainstFullScan cross-checks the wheel against a brute-force scan over
// a randomized (but seeded) schedule, including re-arms from fire handlers.
func TestAgainstFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const ids = 64
	w := New(0, ids)
	due := make([]uint64, ids) // 0 = unarmed (the full-scan reference)
	for i := 0; i < ids; i++ {
		d := uint64(1 + rng.Intn(2000))
		due[i] = d
		w.Schedule(d, int32(i))
	}
	for tick := uint64(1); tick <= 5000; tick++ {
		var want []int32
		for i := 0; i < ids; i++ {
			if due[i] != 0 && due[i] <= tick {
				want = append(want, int32(i))
			}
		}
		got := w.Advance(tick)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("tick %d: fired %v, reference %v", tick, got, want)
		}
		// Re-arm a third of fired ids at a future tick, like the client
		// driver re-arming think timers, and move an armed one.
		for _, id := range got {
			due[id] = 0
			if rng.Intn(3) == 0 {
				d := tick + uint64(1+rng.Intn(700))
				due[id] = d
				w.Schedule(d, id)
			}
		}
		if id := int32(rng.Intn(ids)); due[id] != 0 {
			due[id] = tick + uint64(1+rng.Intn(700))
			w.Schedule(due[id], id)
		}
	}
}

// TestReset pins that Reset unschedules every id and restarts the clock.
func TestReset(t *testing.T) {
	w := New(0, 100)
	for i := int32(0); i < 100; i++ {
		w.Schedule(uint64(i)+5, i)
	}
	w.Reset(500)
	if w.Len() != 0 || w.Now() != 500 || w.Due(9) != 0 {
		t.Fatalf("after Reset: Len=%d Now=%d Due(9)=%d, want 0, 500, 0", w.Len(), w.Now(), w.Due(9))
	}
	w.Schedule(501, 9)
	if fired := w.Advance(501); !slices.Equal(fired, []int32{9}) {
		t.Fatalf("post-Reset schedule fired %v, want id 9", fired)
	}
}

// TestCancelAndGrow pins that a cancelled id never fires and that an id
// past the wheel's size grows it without disturbing the scheduled ones.
func TestCancelAndGrow(t *testing.T) {
	w := New(0, 2)
	w.Schedule(4, 0)
	w.Schedule(4, 1)
	w.Cancel(0)
	w.Cancel(0)
	w.Cancel(500)
	if w.Due(299) != 0 {
		t.Fatalf("Due(299) = %d on a wheel of 2 ids", w.Due(299))
	}
	w.Schedule(4, 299)
	if w.Len() != 2 || w.Due(0) != 0 || w.Due(299) != 4 {
		t.Fatalf("Len=%d Due(0)=%d Due(299)=%d, want 2, 0, 4", w.Len(), w.Due(0), w.Due(299))
	}
	if fired := w.Advance(4); !slices.Equal(fired, []int32{1, 299}) {
		t.Fatalf("fired %v, want ids 1, 299", fired)
	}
}

// scheduleAdvance drives the wheel n ticks: each tick schedules one timer
// due 1–300 ticks out for one of 1024 ids (by then fired) and advances the
// clock. The pattern is a function of the tick alone, so a run continues
// its warm-up seamlessly.
func scheduleAdvance(w *Wheel, n int) {
	for i := 0; i < n; i++ {
		tick := w.Now() + 1
		w.Schedule(tick+tick%300+1, int32(tick&1023))
		w.Advance(tick)
	}
}

// warmTicks is enough ticks for the fired buffer to have grown to its
// steady capacity.
const warmTicks = 1 << 17

// TestScheduleAdvanceZeroAlloc pins the steady state as allocation-free:
// once the fired buffer has grown, schedule+advance must not allocate.
func TestScheduleAdvanceZeroAlloc(t *testing.T) {
	w := New(0, 1024)
	scheduleAdvance(w, warmTicks)
	if avg := testing.AllocsPerRun(10000, func() { scheduleAdvance(w, 1) }); avg != 0 {
		t.Fatalf("steady-state schedule+advance allocates %.3f allocs/op, want 0", avg)
	}
}

func BenchmarkScheduleAdvance(b *testing.B) {
	w := New(0, 1024)
	scheduleAdvance(w, warmTicks)
	b.ReportAllocs()
	b.ResetTimer()
	scheduleAdvance(w, b.N)
}
