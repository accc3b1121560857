// Package timerwheel is a deterministic hierarchical timer wheel keyed on
// the simulation's 10 ms network ticks.
//
// It is the event-driven substrate of the million-client network layer (see
// DESIGN.md, "Event-driven netsim"): instead of scanning the whole client
// fleet (or socket table) every tick, timers are hashed into slots and each
// tick touches only the ids that actually fire or cascade, so per-tick
// cost is O(expiring), independent of the dormant population. The layout is
// the hashed hierarchical wheel of Varghese and Lauck (SOSP 1987), made
// intrusive: the wheel owns one deadline and one list node per id, in
// arrays sized to the caller's table (16 bytes per id; they grow when an id
// past the end is scheduled), so an id is in at most one slot, Schedule
// moves it, and Due reports its deadline. Nothing goes stale: a
// rescheduled or cancelled id is unlinked, not left behind.
//
// Determinism contract:
//   - No maps, no randomness, no wall clock: slot placement is pure
//     arithmetic on the tick value.
//   - A slot is a FIFO list in schedule order and cascades preserve it, so
//     the fire order of same-deadline ids is a pure function of the
//     schedule order. Callers that need a canonical order (the netsim
//     client scan runs in ascending client index) sort the fired batch.
//   - Advance reuses one internal scratch buffer; schedule, cancel and
//     advance allocate nothing once the fired buffer has grown (the
//     hotalloc analyzer pins this — see ANALYSIS.md).
//
// The wheel is deliberately not serialized: checkpoint users rebuild it from
// their own serialized state on restore (canonical re-arm), which keeps the
// checkpoint format independent of the wheel's internal layout.
package timerwheel

const (
	slotBits = 8
	numSlots = 1 << slotBits // 256 slots per level
	slotMask = numSlots - 1
	// levels covers deadlines up to 2^32 ticks past now; anything further
	// parks in the overflow list and re-files when the top level wraps.
	levels = 4
	// overflow is the list index of the deadlines beyond the horizon; the
	// leveled slots are lists 0 .. levels*numSlots-1.
	overflow = levels * numSlots
)

// horizon is the furthest relative deadline the leveled slots can hold.
const horizon = uint64(1) << (slotBits * levels)

// node is one id's deadline and list links, together so that scheduling,
// firing or cascading an id touches one cache line.
//
// Each slot is a doubly linked list threaded through next and prev. A link
// to an id is that id; a negative link -(list+1) ends list `list`: the head
// of a list has it as prev and the tail as next, so an id unlinks in O(1)
// without knowing which slot it is in. A list whose head is negative is
// empty.
type node struct {
	due        uint64 // 0 = not scheduled
	next, prev int32  // valid while scheduled
}

// Wheel is a hierarchical timer wheel over the ids 0 .. n-1 of a caller's
// table.
type Wheel struct {
	now  uint64
	ids  []node
	head [overflow + 1]int32
	tail [overflow + 1]int32
	// fired is Advance's result, valid until the next call.
	fired []int32
	n     int // scheduled ids
}

// New returns an empty wheel sized for the ids 0 .. ids-1 whose clock
// starts at now: the first advanceable tick is now+1.
func New(now uint64, ids int) *Wheel {
	w := &Wheel{ids: make([]node, ids)}
	w.Reset(now)
	return w
}

// grow extends the wheel to the ids 0 .. ids-1, amortized like append; the
// wheel never shrinks.
func (w *Wheel) grow(ids int) {
	for len(w.ids) < ids {
		w.ids = append(w.ids, node{})
	}
}

// Now returns the wheel's current tick.
func (w *Wheel) Now() uint64 { return w.now }

// Len returns the number of scheduled ids.
func (w *Wheel) Len() int { return w.n }

// Due returns the tick id fires at, or 0 if it is not scheduled.
func (w *Wheel) Due(id int32) uint64 {
	if int(id) >= len(w.ids) {
		return 0
	}
	return w.ids[id].due
}

// Schedule sets id to fire at tick due, moving it if it was scheduled for
// another tick; rescheduling it for its own tick keeps its place. Deadlines
// at or before the current tick are clamped to now+1 (the next advance): a
// past deadline means "fire at the next opportunity", which is what a full
// scan would have done with it.
func (w *Wheel) Schedule(due uint64, id int32) {
	if due <= w.now {
		due = w.now + 1
	}
	w.grow(int(id) + 1)
	switch w.ids[id].due {
	case due:
		return
	case 0:
		w.n++
	default:
		w.unlink(id)
	}
	w.ids[id].due = due
	w.place(id)
}

// Cancel unschedules id; a no-op if it is not scheduled.
func (w *Wheel) Cancel(id int32) {
	if w.Due(id) != 0 {
		w.unlink(id)
		w.ids[id].due = 0
		w.n--
	}
}

// place files id into the level whose resolution matches its distance from
// now, at the tail of the slot. Level l holds deltas in
// (256^l - 1, 256^(l+1) - 1]; the sub-slot remainder rides along and
// resolves when the id cascades down.
func (w *Wheel) place(id int32) {
	x := &w.ids[id]
	due := x.due
	delta := due - w.now
	list := int32(overflow)
	for l := 0; l < levels; l++ {
		if delta < uint64(1)<<(slotBits*(l+1)) {
			list = int32(l*numSlots) + int32((due>>(slotBits*l))&slotMask)
			break
		}
	}
	end := -(list + 1)
	x.next = end
	if t := w.tail[list]; t < 0 {
		w.head[list] = id
		x.prev = end
	} else {
		w.ids[t].next = id
		x.prev = t
	}
	w.tail[list] = id
}

// unlink removes a scheduled id from its slot.
func (w *Wheel) unlink(id int32) {
	p, nx := w.ids[id].prev, w.ids[id].next
	if p < 0 {
		w.head[-p-1] = nx
	} else {
		w.ids[p].next = nx
	}
	if nx < 0 {
		w.tail[-nx-1] = p
	} else {
		w.ids[nx].prev = p
	}
}

// take empties a list and returns its first id (negative if it was empty);
// the ids stay chained through next until they are re-filed.
func (w *Wheel) take(list int) int32 {
	id := w.head[list]
	w.head[list], w.tail[list] = -1, -1
	return id
}

// Advance moves the clock to tick `to` (>= now) and returns every id with
// deadline <= to, unscheduled, grouped by deadline in firing order and FIFO
// within one deadline. The returned slice is internal scratch, valid until
// the next Advance call; the caller may reorder it.
func (w *Wheel) Advance(to uint64) []int32 {
	w.fired = w.fired[:0]
	for w.now < to {
		w.now++
		t := w.now
		// Cascade a higher level's slot down when all lower digits of t
		// wrap to zero. An id placed at level l has delta >= 256^l, so its
		// cascade tick floor(due/256^l)*256^l is strictly after its
		// placement tick: a cascade is never missed.
		for l := 1; l < levels; l++ {
			if t&(uint64(1)<<(slotBits*l)-1) != 0 {
				break
			}
			idx := int((t >> (slotBits * l)) & slotMask)
			w.cascade(l*numSlots + idx)
			if l == levels-1 && idx == 0 {
				// The whole wheel wrapped: pull the overflow back in.
				w.cascade(overflow)
			}
		}
		// Every id in the current level-0 slot is due exactly now: level
		// 0 holds deltas <= 255, which fire before the slot index can
		// recur.
		for id := w.take(int(t & slotMask)); id >= 0; id = w.ids[id].next {
			w.ids[id].due = 0
			w.n--
			w.fired = append(w.fired, id)
		}
	}
	return w.fired
}

// cascade re-files one higher-level slot (or the overflow list) relative to
// the new now, preserving FIFO order. Ids due exactly now land in the
// current level-0 slot, which Advance drains immediately after.
func (w *Wheel) cascade(list int) {
	for id := w.take(list); id >= 0; {
		nx := w.ids[id].next
		w.place(id)
		id = nx
	}
}

// Reset unschedules every id and restarts the clock at now, keeping the
// wheel's size. Checkpoint restore uses it before canonically re-arming
// from serialized state.
func (w *Wheel) Reset(now uint64) {
	clear(w.ids)
	for i := range w.head {
		w.head[i], w.tail[i] = -1, -1
	}
	w.fired = w.fired[:0]
	w.n = 0
	w.now = now
}
