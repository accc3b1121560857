// Checkpoint serialization for the pipeline engine: every in-flight
// instruction, the completion-event heap (written as the raw heap array, so
// pop order is preserved exactly), issue-queue occupancy, renaming-register
// accounting, and all metrics. The attached hardware structures (caches,
// TLBs, predictor, store buffer) save and load through their own packages.
package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/sys"
)

// Save writes the instruction and its thread attribution.
func (f *FedInst) Save(e *checkpoint.Enc) {
	f.Inst.Save(e)
	e.Uint(uint64(f.TID))
	e.Uint(uint64(f.ASN))
	e.Uint(f.PID)
	e.Uint(uint64(f.Cat))
	e.Uint(uint64(f.Sys))
}

// Load reads an instruction written by Save. A category outside the cycle
// attribution table is damage.
func (f *FedInst) Load(d *checkpoint.Dec) {
	f.Inst.Load(d)
	f.TID = uint32(d.Uint())
	f.ASN = uint16(d.Uint())
	f.PID = d.Uint()
	f.Cat = sys.Category(d.Index(sys.NumCategories))
	f.Sys = uint16(d.Uint())
}

// Flag bits of an in-flight instruction in the engine section.
const (
	uopWrongPath = 1 << iota
	uopMispred
	uopFaulted
	uopUsesInt
	uopUsesFP
	uopInQueue
)

func saveUop(e *checkpoint.Enc, u *uop) {
	u.in.Save(e)
	e.Uint(u.idx)
	e.Uint(u.seq)
	e.Uint(u.id)
	e.Uint(uint64(u.state))
	e.Uint(u.fetchedAt)
	e.Uint(u.doneAt)
	e.Uint(checkpoint.Flags(u.wrongPath, u.mispred, u.faulted, u.usesInt, u.usesFP, u.inQueue))
	e.Uint(u.paddr)
}

func loadUop(d *checkpoint.Dec, u *uop) {
	u.in.Load(d)
	u.idx = d.Uint()
	u.seq = d.Uint()
	u.id = d.Uint()
	u.state = uopState(d.Uint())
	u.fetchedAt = d.Uint()
	u.doneAt = d.Uint()
	flags := d.Uint()
	u.wrongPath = flags&uopWrongPath != 0
	u.mispred = flags&uopMispred != 0
	u.faulted = flags&uopFaulted != 0
	u.usesInt = flags&uopUsesInt != 0
	u.usesFP = flags&uopUsesFP != 0
	u.inQueue = flags&uopInQueue != 0
	u.paddr = d.Uint()
}

// Save writes the engine's mutable state, hardware included. Each
// context's ROB ring is written whole (fixed geometry) with its cursors;
// each issue queue is written as its members in dispatch order; the
// completion-event heap is written as its raw array, so pop order is
// preserved exactly.
func (e *Engine) Save(enc *checkpoint.Enc) {
	e.Hier.Save(enc)
	e.ITLB.Save(enc)
	e.DTLB.Save(enc)
	e.Pred.Save(enc)
	e.SB.Save(enc)
	e.Metrics.Save(enc)
	e.Cycles.Save(enc)
	e.Mix.Save(enc)
	enc.Uint(e.now)
	enc.Uint(e.nextID)
	enc.Uint(uint64(len(e.perThread)))
	for _, t := range e.perThread {
		enc.Uint(t.Retired)
		enc.Uint(t.CtxCycles)
	}
	saveQrefs(enc, e.queueRefs(&e.intQ))
	saveQrefs(enc, e.queueRefs(&e.fpQ))
	enc.Int(int64(e.intRegsUsed))
	enc.Int(int64(e.fpRegsUsed))
	enc.Int(int64(e.rrRetire))
	enc.Int(int64(e.rrFetch))
	enc.Int(int64(e.rrDispatch))
	e.smp.Save(enc)
	enc.Uint(uint64(len(e.ctxs)))
	for i := range e.ctxs {
		c := &e.ctxs[i]
		enc.Uint(uint64(len(c.rob)))
		for j := range c.rob {
			saveUop(enc, &c.rob[j])
		}
		enc.Int(int64(c.head))
		enc.Int(int64(c.sz))
		enc.Uint(c.headSeq)
		enc.Uint(c.nextSeq)
		enc.Uint(c.fetchIdx)
		enc.Int(int64(c.dispatch))
		enc.Uint(c.icacheReadyAt)
		enc.Uint(c.redirectAt)
		enc.Bool(c.wrong != nil)
		if c.wrong != nil {
			enc.Uint(c.wrong.pc)
			enc.Uint(c.wrong.state)
			c.wrong.tmpl.Save(enc)
		}
		enc.Uint(c.lastILine)
		enc.Bool(c.hadWork)
		enc.Uint(c.pendingILine)
		enc.Uint(uint64(c.lastCat))
		enc.Uint(uint64(c.lastMode))
		enc.Uint(uint64(c.lastSys))
		enc.Uint(uint64(c.lastTID))
	}
	enc.Uint(uint64(len(e.events)))
	for _, ev := range e.events {
		enc.Uint(ev.at)
		enc.Uint(uint64(ev.ctx))
		enc.Uint(ev.seq)
		enc.Uint(ev.id)
	}
}

// Load overwrites the engine's state from a section written by Save on an
// engine with the same configuration. Context and ROB geometry must match,
// ring cursors must lie inside their ROB, and queue and event references
// must name a context. The wakeup state is rebuilt from the loaded ROBs and
// queue order (rebuildQueues).
func (e *Engine) Load(d *checkpoint.Dec) {
	e.Hier.Load(d)
	e.ITLB.Load(d)
	e.DTLB.Load(d)
	e.Pred.Load(d)
	e.SB.Load(d)
	e.Metrics.Load(d)
	e.Cycles.Load(d)
	e.Mix.Load(d)
	e.now = d.Uint()
	e.nextID = d.Uint()
	e.perThread = checkpoint.Resize(e.perThread, d.Len())
	for i := range e.perThread {
		e.perThread[i] = ThreadStat{Retired: d.Uint(), CtxCycles: d.Uint()}
	}
	e.loadQrefs(d, &e.intQ)
	e.loadQrefs(d, &e.fpQ)
	e.intRegsUsed = int(d.Int())
	e.fpRegsUsed = int(d.Int())
	e.rrRetire = int(d.Int())
	e.rrFetch = int(d.Int())
	e.rrDispatch = int(d.Int())
	e.smp.Load(d)
	// The wakeup state is derived: rebuild it on every exit, so even a
	// damaged section leaves it consistent with whatever the ROBs hold.
	defer e.rebuildQueues()
	if !d.Expect(len(e.ctxs), "contexts") {
		return
	}
	for i := range e.ctxs {
		c := &e.ctxs[i]
		if !d.Expect(len(c.rob), "ROB entries") {
			return
		}
		for j := range c.rob {
			loadUop(d, &c.rob[j])
		}
		c.head = int(d.Int())
		c.sz = int(d.Int())
		c.headSeq = d.Uint()
		c.nextSeq = d.Uint()
		c.fetchIdx = d.Uint()
		c.dispatch = int(d.Int())
		if c.head < 0 || c.head >= len(c.rob) || c.sz < 0 || c.sz > len(c.rob) || c.dispatch < 0 || c.dispatch > c.sz {
			d.Fail("context %d ROB cursors head %d size %d dispatch %d outside %d entries", i, c.head, c.sz, c.dispatch, len(c.rob))
			c.head, c.sz, c.dispatch = 0, 0, 0
		}
		c.icacheReadyAt = d.Uint()
		c.redirectAt = d.Uint()
		c.wrong = nil
		if d.Bool() {
			c.wrongBuf.pc = d.Uint()
			c.wrongBuf.state = d.Uint()
			c.wrongBuf.tmpl.Load(d)
			c.wrong = &c.wrongBuf
		}
		c.lastILine = d.Uint()
		c.hadWork = d.Bool()
		c.pendingILine = d.Uint()
		c.lastCat = sys.Category(d.Index(sys.NumCategories))
		c.lastMode = isa.Mode(d.Index(isa.NumModes))
		c.lastSys = uint16(d.Uint())
		c.lastTID = uint32(d.Uint())
	}
	n := d.Len()
	if n > cap(e.events) {
		d.Fail("%d completion events, heap holds %d", n, cap(e.events))
		n = 0
	}
	e.events = e.events[:n]
	for i := range e.events {
		e.events[i] = event{at: d.Uint(), ctx: d.Index(len(e.ctxs)), seq: d.Uint(), id: d.Uint()}
	}
}

// Save writes the engine-level counters.
func (m *Metrics) Save(e *checkpoint.Enc) {
	for _, v := range [...]uint64{m.Cycles, m.Retired, m.Fetched, m.Squashed, m.ZeroFetch,
		m.ZeroIssue, m.MaxIssue, m.FetchableSum, m.IntIssued, m.FPIssued, m.Interrupts,
		m.DTLBTraps, m.ITLBTraps, m.SyscallsSeen, m.RetireStallSB, m.StallRedirect,
		m.StallIMiss, m.StallROBFull, m.StallFeed} {
		e.Uint(v)
	}
}

// Load reads counters written by Save.
func (m *Metrics) Load(d *checkpoint.Dec) {
	for _, p := range [...]*uint64{&m.Cycles, &m.Retired, &m.Fetched, &m.Squashed, &m.ZeroFetch,
		&m.ZeroIssue, &m.MaxIssue, &m.FetchableSum, &m.IntIssued, &m.FPIssued, &m.Interrupts,
		&m.DTLBTraps, &m.ITLBTraps, &m.SyscallsSeen, &m.RetireStallSB, &m.StallRedirect,
		&m.StallIMiss, &m.StallROBFull, &m.StallFeed} {
		*p = d.Uint()
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
