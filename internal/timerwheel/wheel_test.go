package timerwheel

import (
	"math/rand"
	"sort"
	"testing"
)

// TestFireOrder pins the contract: entries fire at their exact deadline,
// grouped by deadline, FIFO within one deadline.
func TestFireOrder(t *testing.T) {
	w := New(0)
	w.Schedule(3, 1)
	w.Schedule(1, 2)
	w.Schedule(3, 3)
	w.Schedule(2, 4)
	w.Schedule(1, 5)
	var got []Entry
	for tick := uint64(1); tick <= 3; tick++ {
		got = append(got, w.Advance(tick)...)
	}
	want := []Entry{{1, 2}, {1, 5}, {2, 4}, {3, 1}, {3, 3}}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if w.Len() != 0 {
		t.Fatalf("Len = %d after draining, want 0", w.Len())
	}
}

// TestPastDeadlineClamps pins that a deadline at or before now fires at the
// next advance, like a missed full-scan condition would.
func TestPastDeadlineClamps(t *testing.T) {
	w := New(10)
	w.Schedule(10, 7) // == now
	w.Schedule(3, 8)  // < now
	fired := w.Advance(11)
	if len(fired) != 2 || fired[0].ID != 7 || fired[1].ID != 8 {
		t.Fatalf("fired %v, want ids 7,8 at tick 11", fired)
	}
	for _, e := range fired {
		if e.Due != 11 {
			t.Fatalf("clamped entry fired with Due=%d, want 11", e.Due)
		}
	}
}

// TestCascadeBoundaries exercises deadlines straddling every level boundary
// plus the overflow horizon, advancing tick by tick as the simulators do.
func TestCascadeBoundaries(t *testing.T) {
	w := New(0)
	deadlines := []uint64{
		1, 255, 256, 257, 511, 512, 513,
		65_535, 65_536, 65_537,
		1 << 24, 1<<24 + 1, 1<<24 - 1,
	}
	for i, d := range deadlines {
		w.Schedule(d, int32(i))
	}
	fired := map[uint64][]int32{}
	// Jump in big strides (Advance handles multi-tick catch-up) across the
	// interesting region, then verify every deadline fired exactly once at
	// its own tick.
	checkpoints := append([]uint64{}, deadlines...)
	sort.Slice(checkpoints, func(i, j int) bool { return checkpoints[i] < checkpoints[j] })
	for _, cp := range checkpoints {
		for _, e := range w.Advance(cp) {
			fired[e.Due] = append(fired[e.Due], e.ID)
		}
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
	w := New(0)
	const ids = 64
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
		if len(got) != len(want) {
			t.Fatalf("tick %d: fired %v, reference %v", tick, got, want)
		}
		sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i].ID != want[i] {
				t.Fatalf("tick %d: fired %v, reference %v", tick, got, want)
			}
		}
		// Re-arm a third of fired ids at a future tick, like the client
		// driver re-arming think timers.
		for _, e := range got {
			due[e.ID] = 0
			if rng.Intn(3) == 0 {
				d := tick + uint64(1+rng.Intn(700))
				due[e.ID] = d
				w.Schedule(d, e.ID)
			}
		}
	}
}

// TestReset pins that Reset drops all entries and restarts the clock.
func TestReset(t *testing.T) {
	w := New(0)
	for i := int32(0); i < 100; i++ {
		w.Schedule(uint64(i)+5, i)
	}
	w.Reset(500)
	if w.Len() != 0 || w.Now() != 500 {
		t.Fatalf("after Reset: Len=%d Now=%d, want 0, 500", w.Len(), w.Now())
	}
	w.Schedule(501, 9)
	if fired := w.Advance(501); len(fired) != 1 || fired[0].ID != 9 {
		t.Fatalf("post-Reset schedule fired %v, want id 9", fired)
	}
}

// scheduleAdvance drives the wheel n ticks: each tick schedules one timer
// due 1–300 ticks out and advances the clock. The pattern is a function of
// the tick alone, so a run continues its warm-up seamlessly.
func scheduleAdvance(w *Wheel, n int) {
	for i := 0; i < n; i++ {
		tick := w.Now() + 1
		w.Schedule(tick+tick%300+1, int32(tick&1023))
		w.Advance(tick)
	}
}

// warmTicks is enough ticks for every level-0 and level-1 slot the pattern
// reaches to have grown to its steady capacity.
const warmTicks = 1 << 17

// TestScheduleAdvanceZeroAlloc pins the steady state as allocation-free:
// once slot growth is behind it, schedule+advance must not allocate.
func TestScheduleAdvanceZeroAlloc(t *testing.T) {
	w := New(0)
	scheduleAdvance(w, warmTicks)
	if avg := testing.AllocsPerRun(10000, func() { scheduleAdvance(w, 1) }); avg != 0 {
		t.Fatalf("steady-state schedule+advance allocates %.3f allocs/op, want 0", avg)
	}
}

func BenchmarkScheduleAdvance(b *testing.B) {
	w := New(0)
	scheduleAdvance(w, warmTicks)
	b.ReportAllocs()
	b.ResetTimer()
	scheduleAdvance(w, b.N)
}
