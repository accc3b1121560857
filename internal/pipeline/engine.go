package pipeline

import (
	"fmt"

	"repro/internal/conflict"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sys"
)

// Run advances the simulation by n cycles. With sampling enabled the
// cycles are split between functional fast-forward and detailed windows
// (see sample.go); otherwise every cycle runs the full detailed step.
func (e *Engine) Run(n uint64) {
	if e.smp.phase != sampleOff {
		e.runSampled(n, false)
		return
	}
	for i := uint64(0); i < n; i++ {
		e.step()
	}
}

// step simulates one cycle: interrupt delivery, completion/branch
// resolution, retire, dispatch, issue, fetch, and cycle attribution.
//
//detlint:hot per-cycle pipeline step: TestEngineStepZeroAlloc pins 0 allocs/op
func (e *Engine) step() {
	for _, ctx := range e.Feed.Cycle(e.now) {
		e.deliverInterrupt(ctx)
	}
	e.completions()
	e.retire()
	e.dispatch()
	e.issue()
	e.fetch()
	e.attribute()
	e.Metrics.Cycles++
	e.now++
}

func agentOf(in *FedInst) conflict.Agent {
	return conflict.Agent{TID: in.TID, Priv: in.Mode.Privileged()}
}

// ---------------------------------------------------------------- interrupts

func (e *Engine) deliverInterrupt(ctx int) {
	c := &e.ctxs[ctx]
	idx := c.fetchIdx
	for i := 0; i < c.sz; i++ {
		if u := c.robAt(i); !u.wrongPath {
			idx = u.idx
			break
		}
	}
	e.squashAll(c)
	c.fetchIdx = idx
	c.wrong = nil
	c.redirectAt = e.now + uint64(e.Cfg.RedirectPenalty)
	e.Feed.Trap(ctx, idx, nil, TrapInterrupt, 0)
	e.Metrics.Interrupts++
}

// ---------------------------------------------------------------- completion

func (e *Engine) completions() {
	for len(e.events) > 0 && e.events[0].at <= e.now {
		ev := e.events.pop()
		c := &e.ctxs[ev.ctx]
		u := e.lookup(c, ev.seq, ev.id)
		if u == nil {
			continue // squashed
		}
		u.state = stDone
		if u.waiters != 0 {
			e.wake(c, ev.ctx, u)
		}
		if u.mispred && !u.wrongPath {
			// Branch resolved wrong: squash everything younger in this
			// context and redirect fetch to the correct path (the feed
			// index was left pointing there when the wrong path began).
			e.squashFrom(c, ev.seq+1)
			c.wrong = nil
			c.redirectAt = e.now + 1 + uint64(e.Cfg.RedirectPenalty)
		}
	}
}

// lookup finds an in-flight uop by sequence number, validating identity.
func (e *Engine) lookup(c *ctxState, seq, id uint64) *uop {
	if seq < c.headSeq {
		return nil
	}
	off := int(seq - c.headSeq)
	if off >= c.sz {
		return nil
	}
	u := c.robAt(off)
	if u.id != id {
		return nil
	}
	return u
}

// ---------------------------------------------------------------- squash

func (e *Engine) freeRes(u *uop) {
	if u.usesInt {
		e.intRegsUsed--
	}
	if u.usesFP {
		e.fpRegsUsed--
	}
	if u.inQueue {
		// A ready-list entry is dropped by its id check at the next issue
		// stage; until then the slot keeps its capacity.
		q := e.queueOf(u)
		q.live--
		q.dead++
		u.inQueue = false
	}
}

// squashFrom removes all uops with seq >= seqStart from context c.
func (e *Engine) squashFrom(c *ctxState, seqStart uint64) {
	freed := uint64(0)
	for c.sz > 0 {
		tailSeq := c.headSeq + uint64(c.sz) - 1
		if tailSeq < seqStart {
			break
		}
		pos := (c.head + c.sz - 1) & (len(c.rob) - 1)
		u := &c.rob[pos]
		e.freeRes(u)
		u.id = 0
		c.sz--
		freed |= 1 << uint(pos)
		e.Metrics.Squashed++
	}
	if freed != 0 && c.sz > 0 {
		unlinkSlots(c, freed)
	}
	if c.dispatch > c.sz {
		c.dispatch = c.sz
	}
	c.nextSeq = c.headSeq + uint64(c.sz)
}

// squashAll removes every uop from context c (trap or interrupt redirect).
func (e *Engine) squashAll(c *ctxState) {
	e.squashFrom(c, c.headSeq)
}

// ---------------------------------------------------------------- retire

func (e *Engine) retire() {
	budget := e.Cfg.RetireWidth
	n := e.Cfg.Contexts
	for k := 0; k < n && budget > 0; k++ {
		ctx := (e.rrRetire + k) % n
		c := &e.ctxs[ctx]
		for budget > 0 && c.sz > 0 {
			u := c.robAt(0)
			if u.state != stDone || u.doneAt > e.now {
				break
			}
			if u.wrongPath {
				panic("pipeline: wrong-path uop reached retire")
			}
			if u.faulted {
				e.trapAtHead(ctx, c, u)
				break
			}
			if u.in.Class == isa.Store || (u.in.Class == isa.Sync && u.in.Physical) {
				if _, ok := e.SB.Push(e.now); !ok {
					e.Metrics.RetireStallSB++
					break
				}
				// The buffered store drains into the data cache; perform
				// the state-changing access now (timing is decoupled via
				// the buffer).
				e.storeAccess(u)
			}
			e.Mix.Add(&u.in.Inst)
			e.Metrics.Retired++
			e.threadStat(u.in.TID).Retired++
			if u.in.Class == isa.PALCall && u.in.Syscall != 0 {
				e.Metrics.SyscallsSeen++
			}
			// Copy into the engine-owned scratch before freeing the slot:
			// passing &local would force a heap allocation per retired
			// instruction (the pointer escapes into the Feed call).
			idx := u.idx
			e.retireScratch = u.in
			in := &e.retireScratch
			e.freeRes(u)
			u.id = 0
			c.head = (c.head + 1) & (len(c.rob) - 1)
			c.sz--
			c.headSeq++
			if c.dispatch > 0 {
				c.dispatch--
			}
			c.lastCat, c.lastMode, c.lastSys = in.Cat, in.Mode, in.Sys
			c.lastTID = in.TID
			budget--
			e.Feed.Retired(ctx, idx, in)
		}
	}
	e.rrRetire = (e.rrRetire + 1) % n
}

// storeAccess performs the cache write for a retiring store, using the
// physical address resolved at issue.
func (e *Engine) storeAccess(u *uop) {
	e.Hier.DrainStore(u.paddr, agentOf(&u.in), e.now)
}

// trapAtHead delivers a precise DTLB-miss trap for the faulted uop at the
// head of context ctx.
func (e *Engine) trapAtHead(ctx int, c *ctxState, u *uop) {
	e.Metrics.DTLBTraps++
	idx, vaddr := u.idx, u.in.Addr
	e.trapScratch = u.in // copy before squash frees the slot; &local would escape
	e.squashAll(c)
	c.fetchIdx = idx
	c.wrong = nil
	c.redirectAt = e.now + uint64(e.Cfg.RedirectPenalty)
	e.Feed.Trap(ctx, idx, &e.trapScratch, TrapDTLB, vaddr)
}

// ---------------------------------------------------------------- dispatch

func (e *Engine) dispatch() {
	fl := e.Cfg.frontLatency()
	n := e.Cfg.Contexts
	for k := 0; k < n; k++ {
		ctx := (e.rrDispatch + k) % n
		c := &e.ctxs[ctx]
		for c.dispatch < c.sz {
			slot := (c.head + c.dispatch) & (len(c.rob) - 1)
			u := &c.rob[slot]
			if u.state != stFetched || u.fetchedAt+fl > e.now {
				break
			}
			if u.in.Class.UsesFP() {
				if e.fpQ.occupancy() >= e.Cfg.FPQueueSize || e.fpRegsUsed >= e.Cfg.FPRegs {
					break
				}
				e.fpRegsUsed++
				u.usesFP = true
				u.state = stQueued
				e.enqueue(&e.fpQ, c, ctx, slot, u)
			} else {
				if e.intQ.occupancy() >= e.Cfg.IntQueueSize {
					break
				}
				needsReg := u.in.Class == isa.IntALU || u.in.Class == isa.Load ||
					u.in.Class == isa.Sync
				if needsReg && e.intRegsUsed >= e.Cfg.IntRegs {
					break
				}
				if needsReg {
					e.intRegsUsed++
					u.usesInt = true
				}
				u.state = stQueued
				e.enqueue(&e.intQ, c, ctx, slot, u)
			}
			c.dispatch++
		}
	}
	e.rrDispatch = (e.rrDispatch + 1) % n
}

// ---------------------------------------------------------------- issue

// issue selects from the two queues' ready lists, integer first, oldest
// first within each; try consumes the functional units and data-cache ports
// an issuing uop needs and sets its doneAt.
func (e *Engine) issue() {
	intUnits := e.Cfg.IntUnits
	lsUnits := e.Cfg.LSUnits
	syncUnits := e.Cfg.SyncUnits
	fpUnits := e.Cfg.FPUnits
	dports := e.Cfg.DCachePorts
	issuedInt, issuedFP := 0, 0

	e.issueStage(&e.intQ, func(u *uop) bool {
		if intUnits == 0 {
			return false
		}
		switch u.in.Class {
		case isa.Load:
			if lsUnits == 0 || dports == 0 {
				return false
			}
			if !e.memIssue(u, false) {
				// MSHR stall: the probe still occupied the port; retry
				// next cycle.
				lsUnits--
				dports--
				return false
			}
			lsUnits--
			dports--
		case isa.Store:
			if lsUnits == 0 {
				return false
			}
			if !e.memIssue(u, true) {
				return false
			}
			lsUnits--
		case isa.Sync:
			if syncUnits == 0 || dports == 0 {
				return false
			}
			if !e.memIssue(u, false) {
				return false
			}
			syncUnits--
			dports--
		default:
			u.doneAt = e.now + uint64(u.in.Latency())
		}
		intUnits--
		issuedInt++
		return true
	})

	e.issueStage(&e.fpQ, func(u *uop) bool {
		if fpUnits == 0 {
			return false
		}
		fpUnits--
		issuedFP++
		u.doneAt = e.now + uint64(u.in.Latency())
		return true
	})

	e.Metrics.IntIssued += uint64(issuedInt)
	e.Metrics.FPIssued += uint64(issuedFP)
	if issuedInt+issuedFP == 0 {
		e.Metrics.ZeroIssue++
	}
	if issuedInt == e.Cfg.IntUnits {
		e.Metrics.MaxIssue++
	}
}

// memIssue translates and (for loads/syncs) accesses the data cache.
// It returns false on a structural stall (retry); on a DTLB miss it marks
// the uop faulted and lets it reach the head for a precise trap.
func (e *Engine) memIssue(u *uop, storeOnly bool) bool {
	if u.wrongPath {
		// Wrong-path memory ops do not access the data side (documented
		// simplification); they just burn an FU.
		u.doneAt = e.now + 1
		return true
	}
	ag := agentOf(&u.in)
	paddr := u.in.Addr
	if !u.in.Physical {
		pa, hit := e.DTLB.Lookup(u.in.ASN, u.in.Addr, ag)
		if !hit {
			if e.Cfg.AppOnly {
				pa = e.Feed.Translate(&u.in, u.in.Addr)
				e.DTLB.Insert(u.in.ASN, u.in.Addr, pa, ag)
			} else {
				u.faulted = true
				u.doneAt = e.now + 1
				return true
			}
		}
		paddr = pa
	}
	u.paddr = paddr
	if storeOnly {
		// Stores write at retire via the store buffer; issue just resolves
		// the address.
		u.doneAt = e.now + 1
		return true
	}
	res := e.Hier.AccessD(paddr, ag, false, e.now)
	if res.Stall {
		return false
	}
	u.doneAt = res.Ready
	return true
}

// ---------------------------------------------------------------- fetch

// fetchable reports whether a context can fetch this cycle.
func (e *Engine) fetchable(ctx int) bool {
	c := &e.ctxs[ctx]
	if e.now < c.redirectAt {
		e.Metrics.StallRedirect++
		return false
	}
	if c.icacheReadyAt > e.now {
		e.Metrics.StallIMiss++
		return false
	}
	if c.full() {
		e.Metrics.StallROBFull++
		return false
	}
	if c.wrong != nil {
		return true
	}
	if len(e.Feed.Span(ctx, c.fetchIdx)) == 0 {
		e.Metrics.StallFeed++
		return false
	}
	return true
}

func (e *Engine) fetch() {
	// Determine the fetchable set (the paper's "fetchable contexts":
	// not servicing an I-miss or interrupt redirect, with work to fetch).
	f := e.fetchableScratch[:0]
	for ctx := 0; ctx < e.Cfg.Contexts; ctx++ {
		ok := e.fetchable(ctx)
		e.ctxs[ctx].hadWork = ok || e.ctxs[ctx].sz > 0
		if ok {
			f = append(f, ctx)
		}
	}
	e.fetchableScratch = f
	e.Metrics.FetchableSum += uint64(len(f))

	// ICOUNT: prefer contexts with the fewest in-flight instructions
	// (or plain rotation under the round-robin ablation). The rotation-
	// distance tie-break makes the order a strict total order, so this
	// closure-free insertion sort (stable by construction) yields exactly
	// the ordering sort.SliceStable produced, at ≤8 elements and with no
	// per-cycle closure/swapper allocation.
	rr := e.rrFetch
	for i := 1; i < len(f); i++ {
		for j := i; j > 0 && e.fetchLess(f[j], f[j-1], rr); j-- {
			f[j], f[j-1] = f[j-1], f[j]
		}
	}
	e.rrFetch = (e.rrFetch + 1) % e.Cfg.Contexts

	width := e.Cfg.FetchWidth
	fetched := 0
	for i := 0; i < len(f) && i < e.Cfg.FetchContexts && width > 0; i++ {
		n := e.fetchCtx(f[i], width)
		fetched += n
		width -= n
	}
	if fetched == 0 {
		e.Metrics.ZeroFetch++
	}
}

// fetchLess is the ICOUNT fetch-priority order: fewest in-flight
// instructions first, rotation distance from rr breaking ties.
func (e *Engine) fetchLess(a, b, rr int) bool {
	if !e.Cfg.RoundRobinFetch {
		if sa, sb := e.ctxs[a].sz, e.ctxs[b].sz; sa != sb {
			return sa < sb
		}
	}
	n := e.Cfg.Contexts
	return (a-rr+n)%n < (b-rr+n)%n
}

// fetchCtx fetches up to width instructions from one context, returning the
// number fetched.
func (e *Engine) fetchCtx(ctx, width int) int {
	c := &e.ctxs[ctx]
	n := 0
	firstLine := true
	// A correct-path fin points into the feed's span, which stays valid for
	// the whole call: nothing here retires, and a trap ends the call. A
	// wrong-path fin points at engine-owned scratch, since its address flows
	// into Feed calls and a per-iteration local would be forced to the heap.
	var span []FedInst
	for n < width && !c.full() {
		fromWrong := c.wrong != nil
		var fin *FedInst
		if fromWrong {
			e.fetchScratch = c.wrong.next()
			fin = &e.fetchScratch
		} else {
			if len(span) == 0 {
				if span = e.Feed.Span(ctx, c.fetchIdx); len(span) == 0 {
					break
				}
			}
			fin = &span[0]
			span = span[1:]
		}

		line := fin.PC >> 6
		if firstLine || line != c.lastILine {
			if line == c.pendingILine {
				// The fill we were waiting on has returned (fetchable()
				// held us until icacheReadyAt); consume it directly.
				c.pendingILine = ^uint64(0)
				c.lastILine = line
				firstLine = false
			} else {
				paddr, ok := e.ifetchTranslate(ctx, fin, fromWrong)
				if !ok {
					break // ITLB trap spliced (correct path) or wrong path stalled
				}
				res := e.Hier.AccessI(paddr, agentOf(fin), e.now)
				if res.Stall {
					break
				}
				c.lastILine = line
				firstLine = false
				if res.Ready > e.now+1 {
					c.icacheReadyAt = res.Ready
					c.pendingILine = line
					break // I-miss: nothing from this line this cycle
				}
			}
		}

		if !fromWrong {
			c.fetchIdx++
		}
		u := e.push(c, fin, fromWrong)
		e.Metrics.Fetched++
		n++

		if fin.Class.IsBranch() && !fromWrong {
			ag := agentOf(fin)
			pred := e.Pred.Predict(ctx, &fin.Inst, ag)
			misp := e.Pred.Resolve(ctx, &fin.Inst, pred, ag)
			if misp {
				u.mispred = true
				wpc := fin.PC + 4
				if pred.Taken && pred.Target != 0 {
					wpc = pred.Target
				}
				c.startWrong(wpc, *fin)
				break
			}
			if fin.ControlTransfer() {
				break // taken-branch fetch break
			}
		}
		if fin.Class == isa.PALCall && fin.Syscall != 0 {
			break // syscalls serialize the front end
		}
	}
	return n
}

// push appends a fetched instruction to the context's ROB. It writes the
// slot field by field: building a uop value first would copy all 136 bytes
// a second time per fetched instruction.
func (e *Engine) push(c *ctxState, fin *FedInst, wrongPath bool) *uop {
	u := &c.rob[(c.head+c.sz)&(len(c.rob)-1)]
	e.nextID++
	u.in = *fin
	if wrongPath {
		u.idx = ^uint64(0)
	} else {
		u.idx = c.fetchIdx - 1
	}
	u.seq = c.nextSeq
	u.id = e.nextID
	u.state = stFetched
	u.fetchedAt = e.now
	u.doneAt = 0
	u.wrongPath = wrongPath
	u.mispred, u.faulted = false, false
	u.paddr = 0
	u.usesInt, u.usesFP, u.inQueue = false, false, false
	u.ticket, u.waiters, u.pending = 0, 0, 0
	c.nextSeq++
	c.sz++
	return u
}

// ifetchTranslate translates an instruction fetch address. PAL-mode fetches
// bypass the ITLB (PAL code runs physically addressed on the Alpha); other
// modes use the shared ITLB. ok=false means the fetch cannot proceed this
// cycle (and, on the correct path, an ITLB handler has been spliced).
func (e *Engine) ifetchTranslate(ctx int, fin *FedInst, fromWrong bool) (uint64, bool) {
	if fin.Mode == isa.PAL {
		return mem.PALPhysBase + (fin.PC-mem.PALTextBase)%mem.PALPhysSize, true
	}
	ag := agentOf(fin)
	pa, hit := e.ITLB.Lookup(fin.ASN, fin.PC, ag)
	if hit {
		return pa, true
	}
	if e.Cfg.AppOnly {
		pa = e.Feed.Translate(fin, fin.PC)
		e.ITLB.Insert(fin.ASN, fin.PC, pa, ag)
		return pa, true
	}
	if fromWrong {
		return 0, false
	}
	e.Metrics.ITLBTraps++
	c := &e.ctxs[ctx]
	e.trapScratch = *fin // fin may alias the span the splice moves
	e.Feed.Trap(ctx, c.fetchIdx, &e.trapScratch, TrapITLB, fin.PC)
	return 0, false
}

// ---------------------------------------------------------------- accounting

func (e *Engine) attribute() {
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		if c.sz == 0 && !c.hadWork && e.Feed.Halted(ctx) {
			// Nothing in flight, nothing to fetch, no runnable thread:
			// a truly idle (halted) context. Momentary starvation (trap
			// serialization) keeps its current attribution instead.
			e.Cycles.Add(sys.CatIdle, 0, isa.Idle)
			continue
		}
		cat, mode, sysno := c.lastCat, c.lastMode, c.lastSys
		tid := c.lastTID
		for i := 0; i < c.sz; i++ {
			u := c.robAt(i)
			if !u.wrongPath {
				cat, mode, sysno = u.in.Cat, u.in.Mode, u.in.Sys
				tid = u.in.TID
				break
			}
		}
		e.Cycles.Add(cat, sysno, mode)
		e.threadStat(tid).CtxCycles++
	}
}

// CheckInvariants panics if internal bookkeeping is inconsistent; tests call
// it after stepping.
func (e *Engine) CheckInvariants() {
	if e.intRegsUsed < 0 || e.fpRegsUsed < 0 {
		panic(fmt.Sprintf("pipeline: negative reg usage int=%d fp=%d", e.intRegsUsed, e.fpRegsUsed))
	}
	usedInt, usedFP := 0, 0
	for ctx := range e.ctxs {
		c := &e.ctxs[ctx]
		if c.dispatch > c.sz || c.dispatch < 0 {
			panic("pipeline: dispatch pointer out of range")
		}
		for i := 0; i < c.sz; i++ {
			u := c.robAt(i)
			if u.seq != c.headSeq+uint64(i) {
				panic("pipeline: non-contiguous ROB sequence")
			}
			if u.usesInt {
				usedInt++
			}
			if u.usesFP {
				usedFP++
			}
		}
	}
	if usedInt != e.intRegsUsed || usedFP != e.fpRegsUsed {
		panic(fmt.Sprintf("pipeline: reg accounting mismatch int %d!=%d fp %d!=%d",
			usedInt, e.intRegsUsed, usedFP, e.fpRegsUsed))
	}
}
