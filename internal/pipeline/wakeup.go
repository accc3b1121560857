// Wakeup-driven issue queues. A queued uop does not re-prove its operands
// every cycle: dispatch counts the producers whose completion event has not
// popped and registers the uop in each producer's waiter mask, completion
// wakes the waiters, and a uop whose count reaches zero joins its queue's
// ready list in dispatch (ticket) order. The issue stage walks only the
// ready lists, oldest first — exactly the entries the full per-cycle scan
// found operand-ready, in the order it found them (DESIGN.md §6f).
//
// All of it is derived state. The checkpoint keeps the queue order it has
// always kept (one reference per queued uop, oldest first), and Load
// rebuilds tickets, counts, masks and ready lists from it.
package pipeline

import (
	"math/bits"
	"sort"

	"repro/internal/checkpoint"
)

// issueQueue is one shared instruction queue (integer or floating point).
type issueQueue struct {
	// ready holds the operand-ready members in ticket order. An entry
	// squashed since it became ready stays until the next issue stage drops
	// it (its id no longer matches the ROB slot).
	ready []qref
	// live counts the members: in-flight uops marked inQueue.
	live int
	// dead counts members squashed since the last issue stage. They keep
	// their capacity until the issue stage compacts the queue, as entries
	// of a scanned list would.
	dead int
}

// occupancy is the capacity the queue holds against dispatch.
func (q *issueQueue) occupancy() int { return q.live + q.dead }

// queueOf returns the issue queue u dispatches to.
func (e *Engine) queueOf(u *uop) *issueQueue {
	if u.in.Class.UsesFP() {
		return &e.fpQ
	}
	return &e.intQ
}

// enqueue makes u, the uop in ROB slot slot of context ctx, a member of
// queue q: it takes the next ticket, links to its incomplete producers, and
// joins the ready list at once when it has none.
func (e *Engine) enqueue(q *issueQueue, c *ctxState, ctx, slot int, u *uop) {
	e.nextTicket++
	u.ticket = e.nextTicket
	u.inQueue = true
	u.pending = linkProducers(c, u, slot)
	q.live++
	if u.pending == 0 {
		// The newest ticket belongs at the tail.
		q.ready = append(q.ready, qref{ctx: ctx, seq: u.seq, id: u.id, ticket: u.ticket})
	}
}

// linkProducers registers the consumer u (in ROB slot slot) with each
// distinct producer in c's window whose completion has not popped, and
// returns how many there are. A producer already retired, or older than
// the context's stream, counts as complete.
func linkProducers(c *ctxState, u *uop, slot int) uint8 {
	n := uint8(0)
	d1, d2 := u.in.Dep1, u.in.Dep2
	if d2 == d1 {
		d2 = 0 // one producer, counted once
	}
	for _, d := range [2]uint16{d1, d2} {
		if d == 0 || uint64(d) > u.seq {
			continue
		}
		target := u.seq - uint64(d)
		if target < c.headSeq {
			continue // retired (in-order retirement ⇒ done)
		}
		p := c.robAt(int(target - c.headSeq))
		if p.state == stDone {
			continue
		}
		p.waiters |= 1 << uint(slot)
		n++
	}
	return n
}

// wake counts down the consumers waiting on producer p of context ctx,
// whose completion event just popped; a consumer with no producer left
// joins its queue's ready list.
func (e *Engine) wake(c *ctxState, ctx int, p *uop) {
	for w := p.waiters; w != 0; w &= w - 1 {
		u := &c.rob[bits.TrailingZeros64(w)]
		u.pending--
		if u.pending == 0 {
			e.insertReady(e.queueOf(u), qref{ctx: ctx, seq: u.seq, id: u.id, ticket: u.ticket})
		}
	}
	p.waiters = 0
}

// insertReady places r in q's ready list by ticket. Woken uops are mostly
// among the youngest, so the search runs from the tail.
func (e *Engine) insertReady(q *issueQueue, r qref) {
	q.ready = append(q.ready, r)
	i := len(q.ready) - 1
	for i > 0 && q.ready[i-1].ticket > r.ticket {
		q.ready[i] = q.ready[i-1]
		i--
	}
	q.ready[i] = r
}

// unlinkSlots removes the ROB slots in mask from the waiter masks of c's
// in-flight uops. A squash calls it for the slots it frees: they will be
// reused, and a stale bit would wake the next occupant.
func unlinkSlots(c *ctxState, mask uint64) {
	for i := 0; i < c.sz; i++ {
		c.robAt(i).waiters &^= mask
	}
}

// issueStage runs the issue stage over q: try is called on each live ready
// entry, oldest first, and the entries it accepts issue. Dead entries are
// compacted out, so the queue's squashed members stop holding capacity.
func (e *Engine) issueStage(q *issueQueue, try func(u *uop) bool) {
	out := q.ready[:0]
	for _, r := range q.ready {
		u := e.lookup(&e.ctxs[r.ctx], r.seq, r.id)
		if u == nil {
			continue // squashed after it became ready
		}
		if !try(u) {
			out = append(out, r)
			continue
		}
		u.state = stIssued
		u.inQueue = false
		q.live--
		e.events.push(event{at: u.doneAt, ctx: r.ctx, seq: r.seq, id: r.id})
	}
	q.ready = out
	q.dead = 0
}

// resetQueues empties both issue queues (the drain to functional mode has
// squashed every member).
func (e *Engine) resetQueues() {
	for _, q := range [2]*issueQueue{&e.intQ, &e.fpQ} {
		q.ready = q.ready[:0]
		q.live, q.dead = 0, 0
	}
}

// ------------------------------------------------------------ checkpoint

// queueRefs returns the members of q in ticket order, the order Save writes.
func (e *Engine) queueRefs(q *issueQueue) []qref {
	var refs []qref
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		for i := 0; i < c.sz; i++ {
			if u := c.robAt(i); u.inQueue && e.queueOf(u) == q {
				refs = append(refs, qref{ctx: ctx, seq: u.seq, id: u.id, ticket: u.ticket})
			}
		}
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].ticket < refs[j].ticket })
	return refs
}

func saveQrefs(e *checkpoint.Enc, qs []qref) {
	e.Uint(uint64(len(qs)))
	for _, q := range qs {
		e.Uint(uint64(q.ctx))
		e.Uint(q.seq)
		e.Uint(q.id)
	}
}

// loadQrefs reads a saved queue into q's ready list, which serves as the
// staging area until rebuildQueues has the ROBs; it must not grow past its
// configured capacity.
func (e *Engine) loadQrefs(d *checkpoint.Dec, q *issueQueue) {
	n := d.Len()
	if n > cap(q.ready) {
		d.Fail("issue queue of %d entries, capacity %d", n, cap(q.ready))
		n = 0
	}
	q.ready = q.ready[:n]
	for i := range q.ready {
		q.ready[i] = qref{ctx: d.Index(len(e.ctxs)), seq: d.Uint(), id: d.Uint()}
	}
}

// rebuildQueues derives the wakeup state from the loaded ROBs and the saved
// queues staged in the ready lists. A saved reference is a member when it
// names a live queued uop of that queue not named before; members take
// tickets in saved order and link to their producers as at dispatch. Any
// other reference still holds capacity until the next issue stage, as an
// entry of a scanned list would. The inQueue marks follow membership.
func (e *Engine) rebuildQueues() {
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		for j := range c.rob {
			u := &c.rob[j]
			u.ticket, u.waiters, u.pending = 0, 0, 0
			u.inQueue = false
		}
	}
	e.nextTicket = 0
	for _, q := range [2]*issueQueue{&e.intQ, &e.fpQ} {
		saved := q.ready
		q.ready = q.ready[:0] // compacts in place: writes trail reads
		q.live, q.dead = 0, 0
		for _, r := range saved {
			c := &e.ctxs[r.ctx]
			u := e.lookup(c, r.seq, r.id)
			if u == nil || u.state != stQueued || u.inQueue || e.queueOf(u) != q {
				q.dead++
				continue
			}
			slot := (c.head + int(r.seq-c.headSeq)) & (len(c.rob) - 1)
			e.enqueue(q, c, r.ctx, slot, u)
		}
	}
}
