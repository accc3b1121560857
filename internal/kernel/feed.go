package kernel

import (
	"fmt"

	"repro/internal/conflict"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/pipeline"
	"repro/internal/sys"
	"repro/internal/tlb"
	"repro/internal/workload"
)

// genEntry is one element of a context's generation stack: up to n
// instructions drawn from a walker, the annotation template they carry, and
// an action to perform when the entry is exhausted. The shapes are a closed
// set, named by wrap: a bare walker excerpt (wrapNone), one followed by a
// fixed tail instruction (wrapTail, whose walker may be absent), or one
// forced to a mode (wrapMode). Everything is plain data (the action too,
// see action.go), so the whole stack serializes into a checkpoint (syncGen).
type genEntry struct {
	w    *workload.Walker // nil for a tail without one, or once a tail has moved on to its instruction
	n    uint64           // instructions left to draw from w
	tail isa.Inst         // wrapTail: emitted once w is exhausted
	pos  int              // wrapTail: 1 once tail has been emitted, else 0
	mode isa.Mode         // wrapMode: the mode every instruction is forced to
	wrap uint8            // wrapNone, wrapTail or wrapMode (the checkpoint encoding)
	tmpl pipeline.FedInst
	done action
}

// next writes the entry's next instruction over *in and reports whether
// there was one. A tail drops its walker on the call that moves on to its
// tail instruction; until then a drawn-out walker stays attached with
// n == 0, and checkpoints record it that way.
func (g *genEntry) next(in *isa.Inst) bool {
	if g.w != nil {
		if g.n > 0 {
			g.n--
			g.w.NextInto(in)
			if g.wrap == wrapMode {
				in.Mode = g.mode
			}
			return true
		}
		if g.wrap != wrapTail {
			return false
		}
		g.w = nil
	}
	if g.wrap == wrapTail && g.pos == 0 {
		*in = g.tail
		g.pos = 1
		return true
	}
	return false
}

// ctxFeed is the per-hardware-context generation state.
type ctxFeed struct {
	buf []pipeline.FedInst
	// head indexes the first live instruction in buf: retirement advances it
	// instead of reslicing (which would strand the front capacity and force
	// the generator to reallocate the buffer every refill). Compaction is
	// amortized in Retired; sections hold the compacted buffer, so the head
	// never appears in the checkpoint format.
	head  int //detlint:ignore snapshotcomplete normalized away: sections hold the compacted buffer
	base  uint64
	stack []genEntry
	cur   *Thread
	idle  *Thread
	// paused blocks generation until the pending syscall PALCall retires.
	paused     bool
	pendingReq sys.Request
	// syscallRetired records a PALCall retirement that arrived before
	// generation reached its pause point (the retire/generation race).
	syscallRetired bool
	// intrNet marks the next interrupt stub as a network (vs clock) one.
	intrNet bool
}

func (f *ctxFeed) init() {
	f.buf = make([]pipeline.FedInst, 0, 1024)
}

func (f *ctxFeed) push(e genEntry) { f.stack = append(f.stack, e) }

// compact slides the live instructions to the front of the buffer.
func (f *ctxFeed) compact() {
	n := copy(f.buf, f.buf[f.head:])
	f.buf = f.buf[:n]
	f.head = 0
}

// tmplFor builds the annotation for code run on behalf of thread t.
func tmplFor(t *Thread, cat sys.Category, sysno uint16) pipeline.FedInst {
	return pipeline.FedInst{
		TID: t.tid,
		ASN: t.asn,
		PID: t.pid,
		Cat: cat,
		Sys: sysno,
	}
}

// ------------------------------------------------------------ pipeline.Feed

// Span implements pipeline.Feed: the buffered instructions from idx on,
// generating only while idx itself is not yet buffered.
func (k *Kernel) Span(ctx int, idx uint64) []pipeline.FedInst {
	f := &k.feeds[ctx]
	if idx < f.base {
		return nil
	}
	off := idx - f.base
	for uint64(len(f.buf)-f.head) <= off {
		if !k.fill(ctx) {
			return nil
		}
	}
	return f.buf[f.head+int(off):]
}

// Retired implements pipeline.Feed. in may point into the feed buffer, so
// everything needed from it is read before the buffer advances or compacts.
func (k *Kernel) Retired(ctx int, idx uint64, in *pipeline.FedInst) {
	f := &k.feeds[ctx]
	if idx < f.base {
		return
	}
	exit := in.Class == isa.PALReturn && in.Sys == sys.SysExit
	syscall := in.Class == isa.PALCall && in.Syscall != 0
	tid := in.TID
	off := idx - f.base + 1
	if off > uint64(len(f.buf)-f.head) {
		off = uint64(len(f.buf) - f.head)
	}
	f.head += int(off)
	f.base = idx + 1
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	} else if f.head >= 1024 && f.head >= len(f.buf)-f.head {
		// Amortized compaction: once the dead prefix outweighs the live
		// tail, slide the tail to the front so capacity is reused.
		f.compact()
	}
	if exit {
		k.finishExit(tid)
	}
	if syscall {
		if f.paused {
			k.enterSyscall(ctx)
		} else {
			// Generation has not reached the pause point yet; remember the
			// retirement so the pause resolves immediately when it does.
			f.syscallRetired = true
		}
	}
}

// Trap implements pipeline.Feed.
func (k *Kernel) Trap(ctx int, idx uint64, in *pipeline.FedInst, kind pipeline.TrapKind, vaddr uint64) {
	f := &k.feeds[ctx]
	var handler []pipeline.FedInst
	switch kind {
	case pipeline.TrapDTLB:
		handler = k.dtlbHandler(ctx, in, vaddr)
	case pipeline.TrapITLB:
		handler = k.itlbHandler(ctx, in, vaddr)
	case pipeline.TrapInterrupt:
		handler = k.interruptHandler(ctx)
	}
	if len(handler) == 0 {
		return
	}
	off := int(idx - f.base)
	if off < 0 || off > len(f.buf)-f.head {
		panic(fmt.Sprintf("kernel: trap splice at %d outside buffer [%d,%d)", idx, f.base, f.base+uint64(len(f.buf)-f.head)))
	}
	// In-place splice: grow the buffer, slide the tail right, copy the
	// handler in. Amortized this reuses the buffer's capacity instead of
	// allocating a fresh buffer per trap.
	pos := f.head + off
	n := len(handler)
	f.buf = append(f.buf, handler...)
	copy(f.buf[pos+n:], f.buf[pos:])
	copy(f.buf[pos:], handler)
}

// Cycle implements pipeline.Feed: clock/network interrupt generation at the
// 10 ms granularity of §2.3.
func (k *Kernel) Cycle(now uint64) []int {
	k.interrupt = k.interrupt[:0]
	if now-k.lastTick < k.cfg.CyclesPer10ms {
		return k.interrupt
	}
	k.lastTick = now
	frames := k.net.tick(now)
	if k.faults != nil && !k.squeezed {
		// The exhaustion fault domain lands once, at its scheduled tick.
		if tick, ok := k.faults.SqueezeTick(); ok && k.net.ticks >= tick {
			k.applySqueeze(k.faults.Cfg.MemSqueezeFrac, k.faults.Cfg.PoolSqueezeFrac)
		}
	}
	if k.cfg.IdleTimeoutTicks > 0 {
		k.reapIdle()
	}
	// hasNet reflects NIC arrivals: the device interrupts even if the mbuf
	// pool then forces some frames to be dropped at the driver.
	hasNet := len(frames) > 0
	if hasNet {
		if room := k.mbufCapEff - len(k.net.pending); len(frames) > room {
			if room < 0 {
				room = 0
			}
			drop := uint64(len(frames) - room)
			k.MbufDrops += drop
			k.net.Dropped += drop
			frames = frames[:room]
		}
		k.net.pending = append(k.net.pending, frames...)
		if len(k.net.pending) > k.MbufHighwater {
			k.MbufHighwater = len(k.net.pending)
		}
		if k.cfg.ModelNetworkDMA && k.hier != nil && len(frames) > 0 {
			k.hier.DMA(len(frames), now)
		}
	}
	if k.cfg.AppOnly {
		// Application-only mode: deliver instantly, no kernel code.
		if hasNet {
			k.deliverFrames(k.net.pending)
			k.net.pending = k.net.pending[:0]
		}
		for k.pendingRespawns > 0 && k.canFork() {
			k.pendingRespawns--
			k.doRespawn(0)
		}
		return k.interrupt
	}
	if hasNet {
		// Wake the netisr threads to drain the protocol stack.
		for _, t := range k.threads {
			if t.kind == tkNetisr {
				k.wake(t)
			}
		}
		k.NetInterrupts++
	} else {
		k.ClockInterrupts++
	}
	ctx := k.rrIntCtx
	k.rrIntCtx = (k.rrIntCtx + 1) % k.cfg.Contexts
	k.feeds[ctx].intrNet = hasNet
	// Deferred re-forks: the master retries EAGAIN'd respawns at clock
	// granularity, once table slots free up.
	for k.pendingRespawns > 0 && k.canFork() {
		k.pendingRespawns--
		k.doRespawn(ctx)
	}
	k.interrupt = append(k.interrupt, ctx)
	return k.interrupt
}

// Halted implements pipeline.Feed: a context is idle when its idle thread
// is installed with nothing runnable and nothing mid-generation.
func (k *Kernel) Halted(ctx int) bool {
	f := &k.feeds[ctx]
	return f.cur != nil && f.cur.kind == tkIdle && len(f.stack) == 0 &&
		len(k.runQ) == 0 && !f.paused
}

// Translate implements pipeline.Feed (application-only instant TLB fills,
// and the store-retire refill path).
func (k *Kernel) Translate(in *pipeline.FedInst, vaddr uint64) uint64 {
	pid := in.PID
	if mem.IsKernelAddr(vaddr) {
		pid = mem.KernelPID
	}
	paddr, _ := k.Mem.Touch(pid, vaddr)
	k.flushEvictions()
	return paddr
}

// ------------------------------------------------------------ trap handlers

// kthreadTmpl annotates code not tied to a user thread. (Instruction mode
// comes from the generated instructions themselves.)
func kthreadTmpl(tid uint32, cat sys.Category) pipeline.FedInst {
	return pipeline.FedInst{
		TID: tid,
		ASN: tlb.GlobalASN,
		PID: mem.KernelPID,
		Cat: cat,
	}
}

func palReturn(pc uint64, tmpl pipeline.FedInst) pipeline.FedInst {
	out := tmpl
	out.Inst = isa.Inst{PC: pc, Class: isa.PALReturn, Mode: isa.PAL, Taken: true, Target: pc + 4}
	return out
}

// dtlbHandler resolves a data-TLB miss: PAL fast path, plus the kernel VM
// layer when the page needed allocating (first touch) or reclaiming.
func (k *Kernel) dtlbHandler(ctx int, in *pipeline.FedInst, vaddr uint64) []pipeline.FedInst {
	pid := in.PID
	asn := in.ASN
	if mem.IsKernelAddr(vaddr) {
		pid = mem.KernelPID
		asn = tlb.GlobalASN
	}
	paddr, kind := k.Mem.Touch(pid, vaddr)
	k.flushEvictions()
	if int(kind) < len(k.VMFaults) {
		k.VMFaults[kind]++
	}
	k.dtlb.Insert(asn, vaddr, paddr, agentFor(in))

	tmplPAL := *in
	tmplPAL.Cat = sys.CatDTLB
	tmplPAL.Sys = 0
	out := drainRegion(k.handlerBuf[:0], k.code.palDTLB, ctx, palDTLBLen, tmplPAL, isa.PAL)
	if kind != mem.FaultNone {
		tmplVM := tmplPAL
		n := vmFaultLen
		if kind == mem.FaultReclaim {
			// A reclaimed frame is remapped; the victim's shootdown and
			// cache flushes were issued by flushEvictions above, and the
			// longer VM path below charges the OS reclaim work.
			n = vmReclaimLen
		}
		out = drainRegion(out, k.code.vm, ctx, n, tmplVM, isa.Kernel)
	}
	out = append(out, palReturn(k.code.palDTLB.reg.Base, tmplPAL))
	k.handlerBuf = out
	return out
}

// itlbHandler resolves an instruction-TLB miss.
func (k *Kernel) itlbHandler(ctx int, in *pipeline.FedInst, vaddr uint64) []pipeline.FedInst {
	pid := in.PID
	asn := in.ASN
	if mem.IsKernelAddr(vaddr) {
		pid = mem.KernelPID
		asn = tlb.GlobalASN
	}
	paddr, kind := k.Mem.Touch(pid, vaddr)
	k.flushEvictions()
	if int(kind) < len(k.VMFaults) {
		k.VMFaults[kind]++
	}
	k.itlb.Insert(asn, vaddr, paddr, agentFor(in))

	tmpl := *in
	tmpl.Cat = sys.CatITLB
	tmpl.Sys = 0
	out := drainRegion(k.handlerBuf[:0], k.code.palITLB, ctx, palITLBLen, tmpl, isa.PAL)
	if kind != mem.FaultNone {
		out = drainRegion(out, k.code.vm, ctx, vmFaultLen, tmpl, isa.Kernel)
	}
	out = append(out, palReturn(k.code.palITLB.reg.Base, tmpl))
	k.handlerBuf = out
	return out
}

// interruptHandler builds the interrupt stub spliced into the interrupted
// context: PAL entry, then the device (network) or clock handler.
func (k *Kernel) interruptHandler(ctx int) []pipeline.FedInst {
	f := &k.feeds[ctx]
	tid := uint32(0xffff) // interrupts execute on no particular thread
	if f.cur != nil {
		tid = f.cur.tid
	}
	tmpl := kthreadTmpl(tid, sys.CatInterrupt)
	out := drainRegion(k.handlerBuf[:0], k.code.palIntr, ctx, palIntrLen, tmpl, isa.PAL)
	n := clockIntrLen
	if f.intrNet {
		n = intrDevLen
	}
	out = drainRegion(out, k.code.intrDev, ctx, n, tmpl, isa.Kernel)
	out = append(out, palReturn(k.code.palIntr.reg.Base, tmpl))
	f.intrNet = false
	k.handlerBuf = out
	return out
}

// agentFor builds the conflict agent used for TLB inserts from a trap.
func agentFor(in *pipeline.FedInst) conflict.Agent {
	return conflict.Agent{TID: in.TID, Priv: in.Mode.Privileged()}
}

// drainRegion appends n instructions of rw's code for ctx to dst, stamped
// with tmpl and forced to the given mode.
func drainRegion(dst []pipeline.FedInst, rw *regionWalker, ctx, n int, tmpl pipeline.FedInst, mode isa.Mode) []pipeline.FedInst {
	w := rw.walker(ctx)
	for ; n > 0; n-- {
		dst = append(dst, tmpl)
		in := &dst[len(dst)-1].Inst
		w.NextInto(in)
		in.Mode = mode
	}
	return dst
}

// ------------------------------------------------------------ generation

const burstChunk = 192

// fill generates at least one more instruction for ctx, returning false if
// the context has nothing to run right now (serialized or fully blocked).
func (k *Kernel) fill(ctx int) bool {
	f := &k.feeds[ctx]
	// The guard bounds true livelocks only; one pass can legitimately walk
	// the whole thread pool (e.g. 64 server processes blocking in turn, or
	// long chains of instant syscalls in application-only mode).
	for guard := 0; guard < 1_000_000; guard++ {
		if n := len(f.stack); n > 0 {
			// Append the template, then generate the instruction into
			// it in place; an exhausted entry takes the slot back.
			top := &f.stack[n-1]
			f.buf = append(f.buf, top.tmpl)
			if top.next(&f.buf[len(f.buf)-1].Inst) {
				return true
			}
			f.buf = f.buf[:len(f.buf)-1]
			done := top.done
			f.stack = f.stack[:n-1]
			k.runAction(ctx, done)
			continue
		}
		if f.paused {
			return false
		}
		t := f.cur
		if t == nil {
			k.schedule(ctx)
			continue
		}
		switch t.kind {
		case tkIdle:
			if len(k.runQ) > 0 {
				f.cur = nil // let the scheduler pick real work
				continue
			}
			if !k.cfg.IdleSpin {
				// Halting idle: nothing to fetch until work arrives.
				return false
			}
			f.push(genEntry{
				w:    k.code.idle.walker(ctx),
				n:    idleChunk,
				tmpl: kthreadTmpl(t.tid, sys.CatIdle),
			})
		case tkNetisr:
			if !k.netisrStep(ctx, t) {
				// Nothing to process: block and reschedule.
				t.state = tsBlocked
				f.cur = nil
			}
		case tkUser:
			if !k.userStep(ctx, t) {
				return false
			}
		}
	}
	// The state machine above always either pushes work, blocks, or
	// switches; hitting the guard means a logic bug.
	panic("kernel: fill made no progress")
}

// schedule installs the next thread on ctx, generating scheduler code
// (unless coming out of idle with nothing to do, which parks the idle
// thread without cost).
func (k *Kernel) schedule(ctx int) {
	f := &k.feeds[ctx]
	next := k.pickNext(ctx)
	if next == nil {
		f.idle.state = tsRunning
		f.cur = f.idle
		k.IdleScheduled++
		return
	}
	k.ContextSwitches++
	if k.cfg.AppOnly {
		// No kernel code in application-only mode: switch instantly.
		f.cur = next
		next.sinceSched = 0
		if next.wakeReq != nil {
			k.resumeBlockedSyscall(ctx, next)
		}
		return
	}
	tmpl := kthreadTmpl(next.tid, sys.CatSched)
	f.push(genEntry{
		w:    k.code.sched.walker(ctx),
		n:    schedLen,
		tmpl: tmpl,
		done: action{Kind: actSwitchTo, TID: next.tid},
	})
}

// userStep advances a user thread's program by one action. It returns false
// only when the context must pause (syscall serialization).
func (k *Kernel) userStep(ctx int, t *Thread) bool {
	f := &k.feeds[ctx]
	if t.burst > 0 {
		n := t.burst
		if n > burstChunk {
			n = burstChunk
		}
		t.burst -= n
		t.sinceSched += n
		f.push(genEntry{
			w:    t.prog.Walker(),
			n:    n,
			tmpl: tmplFor(t, sys.CatUser, 0),
		})
		return true
	}
	// Preemption at step boundaries once the quantum expires.
	if k.cfg.QuantumInsts > 0 && t.sinceSched >= k.cfg.QuantumInsts && len(k.runQ) > 0 {
		k.Preemptions++
		t.state = tsRunnable
		t.sinceSched = 0
		k.runQ = append(k.runQ, t)
		f.cur = nil
		return true
	}
	step := t.prog.Next()
	switch step.Kind {
	case workload.StepRun:
		if step.N == 0 {
			step.N = 1
		}
		t.burst = step.N
		return true
	case workload.StepSyscall:
		return k.startSyscall(ctx, t, step.Req)
	case workload.StepExit:
		k.exitThread(ctx, t)
		return true
	}
	panic("kernel: unknown program step")
}

// startSyscall emits the user-side PAL call; the service itself is pushed
// when the call retires (syscalls serialize the pipeline).
func (k *Kernel) startSyscall(ctx int, t *Thread, req sys.Request) bool {
	f := &k.feeds[ctx]
	if k.maybeCrash(ctx, t) {
		// The worker died at this syscall boundary instead of issuing it.
		return true
	}
	if k.cfg.AppOnly {
		// §2.3.1: the call completes instantly with no hardware effect.
		k.SyscallCount[req.Num]++
		res, block := k.syscallEffect(t, req)
		if block {
			t.wakeReq = &sys.Request{}
			*t.wakeReq = req
			t.state = tsBlocked
			f.cur = nil
			return true
		}
		t.prog.OnSyscallResult(req, res)
		return true
	}
	call := isa.Inst{
		PC:      t.prog.Walker().PC(),
		Class:   isa.PALCall,
		Mode:    isa.User,
		Taken:   true,
		Target:  k.code.palSys.reg.Base,
		Syscall: req.Num,
	}
	f.push(genEntry{
		wrap: wrapTail,
		tail: call,
		tmpl: tmplFor(t, sys.CatSyscall, req.Num),
		done: action{Kind: actSyscallPause, Req: req},
	})
	return true
}

// enterSyscall runs when the PAL call retires: generate the PAL entry, the
// kernel preamble, and the service body.
func (k *Kernel) enterSyscall(ctx int) {
	f := &k.feeds[ctx]
	f.paused = false
	req := f.pendingReq
	t := f.cur
	if t == nil {
		return
	}
	k.SyscallCount[req.Num]++
	if int(req.Resource) < len(k.SvcInstByRes) {
		k.SvcInstByRes[req.Resource] += uint64(dynLen(req))
	}
	// Stack order: pushed last runs first.
	f.push(genEntry{
		w:    k.code.services[req.Num].walker(ctx),
		n:    uint64(dynLen(req)),
		tmpl: tmplFor(t, sys.CatSyscall, req.Num),
		done: action{Kind: actSvcDone, TID: t.tid, Req: req},
	})
	if k.diskPath(req) {
		// Buffer-cache miss: the zero-latency disk still costs the full
		// driver path and a DMA transfer on the memory bus.
		k.DiskReads++
		if k.hier != nil {
			k.hier.DMA((req.Bytes+63)/64+1, k.lastTick)
		}
		f.push(genEntry{
			w:    k.code.disk.walker(ctx),
			n:    diskDriverLen,
			tmpl: tmplFor(t, sys.CatSyscall, req.Num),
		})
	}
	k.pushLockAcquire(ctx, t, req.Resource, sys.CatSyscall, req.Num)
	f.push(genEntry{
		w:    k.code.preamble.walker(ctx),
		n:    preambleLen,
		tmpl: tmplFor(t, sys.CatSyscall, req.Num),
	})
	f.push(genEntry{
		w:    k.code.palSys.walker(ctx),
		n:    palSysEntryLen,
		wrap: wrapMode,
		mode: isa.PAL,
		tmpl: tmplFor(t, sys.CatSyscall, req.Num),
	})
}

// diskPath decides whether a file operation misses the buffer cache.
func (k *Kernel) diskPath(req sys.Request) bool {
	if req.Resource != sys.ResFile {
		return false
	}
	if req.Num != sys.SysRead && req.Num != sys.SysOpen {
		return false
	}
	return !k.rng.Bool(k.cfg.BufferCacheHitRate)
}

// pushLockAcquire models the kernel lock guarding a resource class: if a
// service on another context holds it, the caller spin-waits (the SMT
// resource waste the paper quantifies in §2.2.2) before taking it.
func (k *Kernel) pushLockAcquire(ctx int, t *Thread, res sys.Resource, cat sys.Category, sysno uint16) {
	f := &k.feeds[ctx]
	i := int(res)
	if i >= len(k.lockHolder) {
		return
	}
	if holder := k.lockHolder[i]; holder != 0 && holder != t.tid {
		k.LockContentions++
		n := spinMeanLen/2 + int(k.rng.Uint64n(spinMeanLen))
		k.SpinInsts += uint64(n)
		tm := tmplFor(t, sys.CatSpin, sysno)
		// The spin must run before the lock is considered taken; it is
		// pushed after the acquire marker below, so it executes first.
		defer f.push(genEntry{
			w:    k.code.spin.walker(ctx),
			n:    uint64(n),
			tmpl: tm,
		})
	}
	k.lockHolder[i] = t.tid
	_ = cat
}

// unlock releases a resource-class lock if t still holds it.
func (k *Kernel) unlock(res sys.Resource, tid uint32) {
	i := int(res)
	if i < len(k.lockHolder) && k.lockHolder[i] == tid {
		k.lockHolder[i] = 0
	}
}

// pushSvcReturn emits the PAL return to user mode and reports the result to
// the program.
func (k *Kernel) pushSvcReturn(ctx int, t *Thread, req sys.Request, res int) {
	f := &k.feeds[ctx]
	ret := isa.Inst{
		PC:     k.code.palSys.reg.Base + k.code.palSys.reg.Size() - 4,
		Class:  isa.PALReturn,
		Mode:   isa.PAL,
		Taken:  true,
		Target: t.prog.Walker().PC(),
	}
	f.push(genEntry{
		wrap: wrapTail,
		tail: ret,
		tmpl: tmplFor(t, sys.CatSyscall, req.Num),
		done: action{Kind: actSvcResult, TID: t.tid, Req: req, Res: res},
	})
}

// resumeBlockedSyscall finishes a syscall whose thread blocked: the wakeup
// path executes a completion slice of the service, then returns to user.
func (k *Kernel) resumeBlockedSyscall(ctx int, t *Thread) {
	f := &k.feeds[ctx]
	req := *t.wakeReq
	res := t.wakeResult
	t.wakeReq = nil
	if k.cfg.AppOnly {
		t.prog.OnSyscallResult(req, res)
		return
	}
	k.pushSvcReturn(ctx, t, req, res)
	f.push(genEntry{
		w:    k.code.services[req.Num].walker(ctx),
		n:    uint64(dynLen(req) / 3),
		tmpl: tmplFor(t, sys.CatSyscall, req.Num),
	})
}

// exitThread terminates a user process. The address space is torn down when
// the exit path's final instruction retires (resources must not vanish under
// the thread's still-in-flight instructions).
func (k *Kernel) exitThread(ctx int, t *Thread) {
	f := &k.feeds[ctx]
	t.state = tsExited
	k.SyscallCount[sys.SysExit]++
	if k.cfg.AppOnly {
		k.finishExit(t.tid)
		f.cur = nil
		return
	}
	ret := isa.Inst{
		PC:     k.code.palSys.reg.Base + k.code.palSys.reg.Size() - 4,
		Class:  isa.PALReturn,
		Mode:   isa.PAL,
		Taken:  true,
		Target: k.code.sched.reg.Base,
	}
	f.push(genEntry{
		w:    k.code.services[sys.SysExit].walker(ctx),
		n:    uint64(dynLen(sys.Request{Num: sys.SysExit})),
		wrap: wrapTail,
		tail: ret,
		tmpl: tmplFor(t, sys.CatSyscall, sys.SysExit),
		done: action{Kind: actClearCur},
	})
}

// maybeCrash samples the process-fault domain: with fault injection armed,
// a worker thread may die at a syscall boundary. It returns true when the
// thread was killed (and a replacement scheduled).
func (k *Kernel) maybeCrash(ctx int, t *Thread) bool {
	if k.faults == nil || !t.worker || !k.faults.CrashNow() {
		return false
	}
	k.crashWorker(ctx, t)
	return true
}

// crashWorker kills a running worker mid-request: locks it held are
// released, its sockets are reaped (the client sees a reset), the kernel
// runs the involuntary-exit path (reusing the same teardown as a voluntary
// exit — ASN invalidation and address-space release at retirement), and the
// master re-forks a replacement.
func (k *Kernel) crashWorker(ctx int, t *Thread) {
	f := &k.feeds[ctx]
	k.WorkerCrashes++
	t.state = tsExited
	t.burst = 0
	for i := range k.lockHolder {
		if k.lockHolder[i] == t.tid {
			k.lockHolder[i] = 0
		}
	}
	k.reapSockets(t)
	k.SyscallCount[sys.SysExit]++
	if k.cfg.AppOnly {
		k.finishExit(t.tid)
		f.cur = nil
		k.respawnWorker(ctx)
		return
	}
	// The master's re-fork work is charged first on the stack (runs after
	// the exit path drains).
	k.respawnWorker(ctx)
	ret := isa.Inst{
		PC:     k.code.palSys.reg.Base + k.code.palSys.reg.Size() - 4,
		Class:  isa.PALReturn,
		Mode:   isa.PAL,
		Taken:  true,
		Target: k.code.sched.reg.Base,
	}
	f.push(genEntry{
		w:    k.code.services[sys.SysExit].walker(ctx),
		n:    uint64(dynLen(sys.Request{Num: sys.SysExit})),
		wrap: wrapTail,
		tail: ret,
		tmpl: tmplFor(t, sys.CatSyscall, sys.SysExit),
		done: action{Kind: actClearCur},
	})
}

// respawnWorker is the master's reaction to a worker death: fork a
// replacement process into the pool (fresh pid and ASN — exercising ASN
// recycling once the space wraps — and a cold address space). At a full
// process table the fork fails with EAGAIN and is queued for retry at the
// next clock tick (admission control, not a wedge).
func (k *Kernel) respawnWorker(ctx int) {
	if k.respawn == nil {
		return
	}
	if !k.canFork() {
		k.ForkRejects++
		k.pendingRespawns++
		return
	}
	k.doRespawn(ctx)
}

// doRespawn performs the admitted re-fork: builds the replacement program,
// registers the worker, and charges the fork service code to ctx.
func (k *Kernel) doRespawn(ctx int) {
	prog := k.respawn()
	if prog == nil {
		return
	}
	nt := k.AddWorker(prog)
	k.WorkerRespawns++
	k.SyscallCount[sys.SysFork]++
	forkReq := sys.Request{Num: sys.SysFork, Resource: sys.ResProcess}
	if int(forkReq.Resource) < len(k.SvcInstByRes) {
		k.SvcInstByRes[forkReq.Resource] += uint64(dynLen(forkReq))
	}
	if k.cfg.AppOnly {
		return
	}
	tmpl := kthreadTmpl(nt.tid, sys.CatSyscall)
	tmpl.Sys = sys.SysFork
	k.feeds[ctx].push(genEntry{
		w:    k.code.services[sys.SysFork].walker(ctx),
		n:    uint64(dynLen(forkReq)),
		tmpl: tmpl,
	})
}

// finishExit tears down an exited process's address space.
func (k *Kernel) finishExit(tid uint32) {
	for _, t := range k.threads {
		if t.tid == tid && t.kind == tkUser {
			k.Mem.ReleaseProcess(t.pid)
			k.dtlb.InvalidateASN(t.asn)
			k.itlb.InvalidateASN(t.asn)
			t.released = true
			k.freeProcSlot(t)
			return
		}
	}
}

// flushEvictions applies the architectural consequences of page reclaims
// staged by the VM layer: each victim's TLB entry is shot down and its cache
// lines flushed before the frame is remapped (§2.2.2 — the dominant source
// of kernel-induced I-cache misses under memory pressure).
func (k *Kernel) flushEvictions() {
	evs := k.Mem.TakeEvictions()
	if evs == nil {
		return
	}
	for _, ev := range evs {
		if asn, ok := k.asnOfPID(ev.PID); ok {
			vaddr := ev.VPN << mem.PageShift
			if k.dtlb != nil {
				k.dtlb.InvalidatePage(asn, vaddr)
			}
			if k.itlb != nil {
				k.itlb.InvalidatePage(asn, vaddr)
			}
		}
		if k.hier != nil {
			base := mem.FrameBase(ev.PFN)
			k.hier.L1I.InvalidateRange(base, mem.PageSize)
			k.hier.L1D.InvalidateRange(base, mem.PageSize)
		}
	}
}

// asnOfPID resolves a live process's address-space number for eviction
// shootdowns. Released processes have no translations left to shoot down.
func (k *Kernel) asnOfPID(pid uint64) (uint16, bool) {
	for _, t := range k.threads {
		if t.kind == tkUser && t.pid == pid && !t.released {
			return t.asn, true
		}
	}
	return 0, false
}
