package timerwheel

import (
	"slices"
	"testing"
)

// fuzzIDs is the id space of FuzzTimerWheel: small, so schedules collide
// on ids and reschedule live ones.
const fuzzIDs = 32

// fuzzStarts are the clocks a reset may restart at: zero, and just short
// of each level's wrap and of the horizon, so a few hundred ticks cross
// every cascade boundary and pull the overflow list back in.
var fuzzStarts = [...]uint64{
	0, 1<<8 - 3, 1<<16 - 5, 1<<24 - 7, 1<<32 - 9, 1<<40 - 300, 3<<32 - 2,
}

// fuzzDelta maps two fuzz bytes to a deadline distance from now: near
// zero, straddling each level boundary, near and past the horizon, or in
// the past (clamped by Schedule to the next tick).
func fuzzDelta(kind, b byte) int64 {
	off := int64(b % 16)
	switch kind % 8 {
	case 0:
		return off
	case 1:
		return 1<<8 - 8 + off
	case 2:
		return 1<<16 - 8 + off
	case 3:
		return 1<<24 - 8 + off
	case 4:
		return 1<<32 - 8 + off
	case 5:
		return 1<<32 + int64(b)<<20
	case 6:
		return -int64(b)
	default:
		return int64(b) << 4
	}
}

// maxFuzzTicks bounds the ticks one input advances, so an input runs in
// a few milliseconds (Advance walks its span tick by tick) and still
// reaches deadlines filed at level 2.
const maxFuzzTicks = 1 << 21

// FuzzTimerWheel drives the wheel with a generated sequence of schedule,
// reschedule, cancel, advance and reset operations, and checks every
// Advance against a sort oracle: the ids whose latest deadline has come,
// sorted. The wheel must fire exactly that set, each id once, in
// nondecreasing deadline order. After every operation Due and Len must
// match the oracle, and every slot must be a well-formed list of ids filed
// where their deadlines belong (checkSlots).
func FuzzTimerWheel(f *testing.F) {
	f.Add([]byte{0, 1, 0, 5, 0, 2, 1, 7, 2, 3, 2, 9})
	f.Add([]byte{4, 4, 0, 1, 3, 3, 0, 2, 4, 9, 2, 255, 2, 255, 2, 20})
	f.Add([]byte{4, 2, 0, 3, 1, 7, 0, 4, 2, 0, 5, 2, 3, 2, 200, 2, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		w := New(0, fuzzIDs)
		due := make([]uint64, fuzzIDs) // the oracle: 0 = unscheduled
		var want []int32
		ticks := 0
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		for len(ops) > 0 && ticks < maxFuzzTicks {
			switch op := next(); op % 5 {
			case 0, 1: // schedule or reschedule
				id := int32(next() % fuzzIDs)
				now := w.Now()
				raw := now
				if delta := fuzzDelta(next(), next()); delta >= 0 {
					raw += uint64(delta)
				} else {
					raw -= min(now, uint64(-delta))
				}
				// A deadline at or before now fires at the next tick.
				due[id] = max(raw, now+1)
				w.Schedule(raw, id)
			case 2: // cancel
				id := int32(next() % fuzzIDs)
				due[id] = 0
				w.Cancel(id)
			case 3: // advance
				step := 1 + uint64(next())
				if op/5%2 != 0 { // a long advance
					step <<= 12
				}
				ticks += int(step)
				to := w.Now() + step
				want = want[:0]
				for id, d := range due {
					if d != 0 && d <= to {
						want = append(want, int32(id))
					}
				}
				got := w.Advance(to)
				last := uint64(0)
				for _, id := range got {
					d := due[id]
					if d == 0 || d < last || d > to {
						t.Fatalf("advance to %d: id %d (deadline %d) fired after a deadline %d", to, id, d, last)
					}
					last = d
					due[id] = 0
				}
				// Within one deadline the wheel fires in slot order; the
				// oracle lists ids ascending, as every caller sorts a batch.
				slices.Sort(got)
				if !slices.Equal(got, want) {
					t.Fatalf("advance to %d: fired %v, oracle %v", to, got, want)
				}
				if w.Now() != to {
					t.Fatalf("advance to %d left the clock at %d", to, w.Now())
				}
			case 4: // reset
				now := fuzzStarts[int(next())%len(fuzzStarts)]
				w.Reset(now)
				clear(due)
				if w.Now() != now {
					t.Fatalf("Reset(%d): Now=%d", now, w.Now())
				}
			}
			for id, d := range due {
				if got := w.Due(int32(id)); got != d {
					t.Fatalf("Due(%d) = %d, oracle %d", id, got, d)
				}
			}
			checkSlots(t, w)
		}
	})
}

// checkSlots verifies the wheel's lists: each is well linked and ends in
// its own sentinel, every scheduled id is on exactly one, and each id sits
// in the slot that its deadline's digit names, serviced (fired or
// cascaded) no later than the deadline and with its remainder below that
// level's resolution. An id in the overflow list is due no earlier than
// the next wrap of the top level, which re-files it.
func checkSlots(t *testing.T, w *Wheel) {
	t.Helper()
	seen := 0
	for list := range w.head {
		end := -int32(list + 1)
		prev := end
		for id := w.head[list]; id >= 0; id = w.ids[id].next {
			if w.ids[id].prev != prev {
				t.Fatalf("list %d: id %d has prev %d, want %d", list, id, w.ids[id].prev, prev)
			}
			if seen++; seen > w.Len() {
				t.Fatalf("list %d: more ids on the lists than Len %d", list, w.Len())
			}
			d := w.ids[id].due
			if d <= w.now {
				t.Fatalf("list %d: id %d due %d, not after now %d", list, id, d, w.now)
			}
			if list == overflow {
				if wrap := (w.now/horizon + 1) * horizon; d < wrap {
					t.Fatalf("overflow holds id %d due %d, before the wrap at %d", id, d, wrap)
				}
			} else {
				l, idx := uint64(list/numSlots), uint64(list%numSlots)
				lo, span := slotBits*l, uint64(1)<<(slotBits*(l+1))
				// service is the first tick after now whose digit l is idx
				// and whose lower digits are zero.
				service := w.now&^(span-1) + idx<<lo
				if service <= w.now {
					service += span
				}
				if d>>lo != service>>lo {
					t.Fatalf("level %d slot %d holds id %d due %d; the slot is serviced at %d (now %d)", l, idx, id, d, service, w.now)
				}
			}
			prev = id
			if w.ids[id].next < 0 && w.ids[id].next != end {
				t.Fatalf("list %d ends in the sentinel of list %d", list, -w.ids[id].next-1)
			}
		}
		if w.tail[list] != prev && !(prev == end && w.tail[list] < 0) {
			t.Fatalf("list %d: tail %d, last id %d", list, w.tail[list], prev)
		}
	}
	if seen != w.Len() {
		t.Fatalf("%d ids on the lists, Len %d", seen, w.Len())
	}
}
