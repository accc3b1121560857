// Checkpoint serialization for the pipeline engine: every in-flight
// instruction, the completion-event heap (written as the raw heap array, so
// pop order is preserved exactly), issue-queue occupancy, renaming-register
// accounting, and all metrics. The attached hardware structures (caches,
// TLBs, predictor, store buffer) sync through their own packages.
package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/sys"
)

// Sync syncs the instruction and its thread attribution. A category
// outside the cycle attribution table is damage.
func (f *FedInst) Sync(c *checkpoint.Codec) {
	f.Inst.Sync(c)
	checkpoint.U(c, &f.TID)
	checkpoint.U(c, &f.ASN)
	c.Uint(&f.PID)
	checkpoint.Index(c, &f.Cat, sys.NumCategories)
	checkpoint.U(c, &f.Sys)
}

// syncUop syncs one in-flight instruction.
func syncUop(c *checkpoint.Codec, u *uop) {
	u.in.Sync(c)
	c.Uint(&u.idx)
	c.Uint(&u.seq)
	c.Uint(&u.id)
	checkpoint.U(c, &u.state)
	c.Uint(&u.fetchedAt)
	c.Uint(&u.doneAt)
	c.Flags(&u.wrongPath, &u.mispred, &u.faulted, &u.usesInt, &u.usesFP, &u.inQueue)
	c.Uint(&u.paddr)
}

// Sync syncs the engine's mutable state, hardware included, on an engine
// with the same configuration when reading. Each context's ROB ring is
// synced whole (fixed geometry) with its cursors, which must lie inside
// it; each issue queue as its members in dispatch order; the
// completion-event heap as its raw array, so pop order is preserved
// exactly. Queue and event references must name a context.
func (e *Engine) Sync(c *checkpoint.Codec) {
	e.Hier.Sync(c)
	e.ITLB.Sync(c)
	e.DTLB.Sync(c)
	e.Pred.Sync(c)
	e.SB.Sync(c)
	e.Metrics.Sync(c)
	e.Cycles.Sync(c)
	e.Mix.Sync(c)
	c.Uint(&e.now)
	c.Uint(&e.nextID)
	checkpoint.Len(c, &e.perThread, -1, "thread statistics")
	for i := range e.perThread {
		c.Uint(&e.perThread[i].Retired)
		c.Uint(&e.perThread[i].CtxCycles)
	}
	e.syncQueue(c, &e.intQ)
	e.syncQueue(c, &e.fpQ)
	checkpoint.I(c, &e.intRegsUsed)
	checkpoint.I(c, &e.fpRegsUsed)
	checkpoint.I(c, &e.rrRetire)
	checkpoint.I(c, &e.rrFetch)
	checkpoint.I(c, &e.rrDispatch)
	e.smp.Sync(c)
	if c.Loading() {
		// Derived state: the wakeup state is rebuilt from the loaded ROBs
		// and queue order on every exit, so even a damaged section leaves
		// it consistent with whatever the ROBs hold.
		defer e.rebuildQueues()
	}
	if !c.Expect(len(e.ctxs), "contexts") {
		return
	}
	for i := range e.ctxs {
		if !e.syncCtx(c, i) {
			return
		}
	}
	checkpoint.Len(c, &e.events, cap(e.events), "completion events")
	for i := range e.events {
		ev := &e.events[i]
		c.Uint(&ev.at)
		checkpoint.Index(c, &ev.ctx, len(e.ctxs))
		c.Uint(&ev.seq)
		c.Uint(&ev.id)
	}
}

// syncCtx syncs one context; it reports false when the ROB geometry does
// not match.
func (e *Engine) syncCtx(c *checkpoint.Codec, i int) bool {
	cx := &e.ctxs[i]
	if !c.Expect(len(cx.rob), "ROB entries") {
		return false
	}
	for j := range cx.rob {
		syncUop(c, &cx.rob[j])
	}
	checkpoint.I(c, &cx.head)
	checkpoint.I(c, &cx.sz)
	c.Uint(&cx.headSeq)
	c.Uint(&cx.nextSeq)
	c.Uint(&cx.fetchIdx)
	checkpoint.I(c, &cx.dispatch)
	if c.Loading() && (cx.head < 0 || cx.head >= len(cx.rob) || cx.sz < 0 || cx.sz > len(cx.rob) || cx.dispatch < 0 || cx.dispatch > cx.sz) {
		// Checking input: the ring cursors lie inside the ROB.
		c.Fail("context %d ROB cursors head %d size %d dispatch %d outside %d entries", i, cx.head, cx.sz, cx.dispatch, len(cx.rob))
		cx.head, cx.sz, cx.dispatch = 0, 0, 0
	}
	c.Uint(&cx.icacheReadyAt)
	c.Uint(&cx.redirectAt)
	wrong := cx.wrong != nil
	c.Bool(&wrong)
	cx.wrong = nil
	if wrong {
		cx.wrong = &cx.wrongBuf
		c.Uint(&cx.wrongBuf.pc)
		c.Uint(&cx.wrongBuf.state)
		cx.wrongBuf.tmpl.Sync(c)
	}
	c.Uint(&cx.lastILine)
	c.Bool(&cx.hadWork)
	c.Uint(&cx.pendingILine)
	checkpoint.Index(c, &cx.lastCat, sys.NumCategories)
	checkpoint.Index(c, &cx.lastMode, isa.NumModes)
	checkpoint.U(c, &cx.lastSys)
	checkpoint.U(c, &cx.lastTID)
	return true
}

// Sync syncs the engine-level counters.
func (m *Metrics) Sync(c *checkpoint.Codec) {
	for _, p := range [...]*uint64{&m.Cycles, &m.Retired, &m.Fetched, &m.Squashed, &m.ZeroFetch,
		&m.ZeroIssue, &m.MaxIssue, &m.FetchableSum, &m.IntIssued, &m.FPIssued, &m.Interrupts,
		&m.DTLBTraps, &m.ITLBTraps, &m.SyscallsSeen, &m.RetireStallSB, &m.StallRedirect,
		&m.StallIMiss, &m.StallROBFull, &m.StallFeed} {
		c.Uint(p)
	}
}

// CheckQueueConsistency cross-checks the issue queues' wakeup state against
// ROB contents (auditor access, between cycles): every ready-list entry must
// name a live, queue-marked instruction of its queue with no producer left,
// in ticket order; each queue's occupancy must equal its queue-marked
// population; each queued instruction's pending count must equal its
// incomplete producers, each of which lists it as a waiter; and waiter masks
// must name only queued instructions. It returns one description per
// violation.
func (e *Engine) CheckQueueConsistency() []string {
	var bad []string
	for qi, q := range [2]*issueQueue{&e.intQ, &e.fpQ} {
		name := [2]string{"int", "fp"}[qi]
		for i, r := range q.ready {
			if r.ctx < 0 || r.ctx >= len(e.ctxs) {
				bad = append(bad, fmt.Sprintf("%s ready entry references context %d of %d", name, r.ctx, len(e.ctxs)))
				continue
			}
			if i > 0 && q.ready[i-1].ticket >= r.ticket {
				bad = append(bad, fmt.Sprintf("%s ready list out of ticket order at %d: %d then %d",
					name, i, q.ready[i-1].ticket, r.ticket))
			}
			c := &e.ctxs[r.ctx]
			if r.seq < c.headSeq || r.seq >= c.headSeq+uint64(c.sz) {
				bad = append(bad, fmt.Sprintf("%s ready entry ctx%d seq%d outside ROB window [%d,%d)",
					name, r.ctx, r.seq, c.headSeq, c.headSeq+uint64(c.sz)))
				continue
			}
			u := c.robAt(int(r.seq - c.headSeq))
			switch {
			case u.id != r.id:
				bad = append(bad, fmt.Sprintf("%s ready entry ctx%d seq%d id mismatch: queue %d, ROB %d",
					name, r.ctx, r.seq, r.id, u.id))
			case !u.inQueue || e.queueOf(u) != q:
				bad = append(bad, fmt.Sprintf("%s ready entry ctx%d seq%d not marked in this queue", name, r.ctx, r.seq))
			case u.pending != 0 || u.ticket != r.ticket:
				bad = append(bad, fmt.Sprintf("%s ready entry ctx%d seq%d has %d pending producers, ticket %d (entry %d)",
					name, r.ctx, r.seq, u.pending, u.ticket, r.ticket))
			}
		}
	}
	var marked, ready [2]int
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		for i := 0; i < c.sz; i++ {
			u := c.robAt(i)
			for w := u.waiters; w != 0; w &= w - 1 {
				s := bits.TrailingZeros64(w)
				off := (s - c.head) & (len(c.rob) - 1)
				if off >= c.sz || !c.rob[s].inQueue {
					bad = append(bad, fmt.Sprintf("ctx%d seq%d waiter mask names slot %d, not a queued instruction",
						ctx, u.seq, s))
				}
			}
			if !u.inQueue {
				continue
			}
			qi := 0
			if u.in.Class.UsesFP() {
				qi = 1
			}
			marked[qi]++
			slot := (c.head + i) & (len(c.rob) - 1)
			want := uint8(0)
			deps := [2]uint16{u.in.Dep1, u.in.Dep2}
			if deps[1] == deps[0] {
				deps[1] = 0 // one producer named twice
			}
			for _, d := range deps {
				if d == 0 || uint64(d) > u.seq {
					continue
				}
				target := u.seq - uint64(d)
				if target < c.headSeq {
					continue
				}
				p := c.robAt(int(target - c.headSeq))
				if p.state == stDone {
					continue
				}
				if p.waiters&(1<<uint(slot)) == 0 {
					bad = append(bad, fmt.Sprintf("ctx%d seq%d waits on seq%d, whose waiter mask omits it", ctx, u.seq, p.seq))
				}
				want++
			}
			if u.pending != want {
				bad = append(bad, fmt.Sprintf("ctx%d seq%d pending count %d, %d producers incomplete", ctx, u.seq, u.pending, want))
			}
			if want == 0 {
				ready[qi]++
			}
		}
	}
	if marked[0] != e.intQ.live || marked[1] != e.fpQ.live {
		bad = append(bad, fmt.Sprintf("in-flight queue-marked count int %d fp %d != queue occupancy int %d fp %d",
			marked[0], marked[1], e.intQ.live, e.fpQ.live))
	}
	if ready[0] != len(e.intQ.ready) || ready[1] != len(e.fpQ.ready) {
		bad = append(bad, fmt.Sprintf("operand-ready queued count int %d fp %d != ready lists int %d fp %d",
			ready[0], ready[1], len(e.intQ.ready), len(e.fpQ.ready)))
	}
	return bad
}
