// Checkpoint serialization for the kernel: threads, per-context generation
// state (including mid-flight generation stacks), the network stack, the
// codebase walkers, and every counter. Pointers (threads, walkers) are
// written as identifiers — TIDs for threads, (region, context) pairs for
// kernel-code walkers — and relinked on load.
package kernel

import (
	"fmt"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/sys"
	"repro/internal/workload"
)

// Generation-stack entry wrappers and generator sources (see saveGen).
const (
	wrapNone uint8 = iota // bare *workload.Limit
	wrapTail              // *workload.Tail (optionally around a Limit)
	wrapMode              // *modeForce around a Limit
)

const (
	srcRegion uint8 = iota // Limit around a kernel-code region walker
	srcProg                // Limit around a user program's walker
)

// ProgFactory rebuilds the structure of a user program identified by
// (name, slot); the checkpoint layer then overwrites its walker and script
// state. core provides one per workload; it returns nil for a program it
// cannot build.
type ProgFactory func(name string, slot int) *workload.ScriptProgram

// Save writes the kernel's mutable state.
func (k *Kernel) Save(e *checkpoint.Enc) {
	k.rng.Save(e)
	k.Mem.Save(e)

	// Kernel-code walkers, in deterministic (region, ctx) order.
	names := make([]string, 0, len(k.code.byName))
	for name := range k.code.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	regionOf := map[*workload.Walker]walkerRef{}
	e.Uint(uint64(len(names)))
	for _, name := range names {
		rw := k.code.byName[name]
		e.String(name)
		e.Uint(uint64(len(rw.ws)))
		for c, w := range rw.ws {
			w.Save(e)
			regionOf[w] = walkerRef{region: name, ctx: c}
		}
	}
	progOf := map[*workload.Walker]uint32{}
	for _, t := range k.threads {
		if t.prog != nil {
			progOf[t.prog.Walker()] = t.tid
		}
	}

	e.Uint(uint64(len(k.threads)))
	for _, t := range k.threads {
		saveThread(e, t)
	}
	e.Uint(uint64(len(k.runQ)))
	for _, t := range k.runQ {
		e.Uint(uint64(t.tid))
	}
	e.Uint(uint64(len(k.feeds)))
	for i := range k.feeds {
		f := &k.feeds[i]
		live := f.buf[f.head:]
		e.Uint(uint64(len(live)))
		for j := range live {
			live[j].Save(e)
		}
		e.Uint(f.base)
		e.Uint(uint64(len(f.stack)))
		for _, g := range f.stack {
			saveGen(e, g, regionOf, progOf)
		}
		e.Uint(uint64(tidOf(f.cur)))
		e.Uint(uint64(tidOf(f.idle)))
		e.Bool(f.paused)
		f.pendingReq.Save(e)
		e.Bool(f.syscallRetired)
		e.Bool(f.intrNet)
	}
	k.saveNet(e)
	e.Uint(k.net.Delivered)
	e.Uint(k.net.Dropped)

	e.Uint(uint64(k.nextASN))
	e.Uint(k.asnEpoch)
	e.Uint(uint64(k.nextTID))
	e.Uint(k.nextPID)
	e.Int(int64(k.rrIntCtx))
	e.Uint(k.lastTick)
	for _, v := range [...]uint64{k.ContextSwitches, k.Preemptions, k.ASNRecycles,
		k.ClockInterrupts, k.NetInterrupts, k.IdleScheduled, k.LockContentions, k.SpinInsts,
		k.DiskReads, k.WorkerCrashes, k.WorkerRespawns, k.ConnsRefused, k.ReapedIdle,
		k.ReapedSlowloris, k.SockPoolRejects, k.MbufDrops, k.FDRejects, k.ForkRejects} {
		e.Uint(v)
	}
	checkpoint.PutUints(e, k.SyscallCount[:])
	checkpoint.PutUints(e, k.VMFaults[:])
	checkpoint.PutUints(e, k.SvcInstByRes[:])
	checkpoint.PutUints(e, k.lockHolder[:])
	checkpoint.PutUints(e, k.procSlots)
	checkpoint.PutInts(e, k.procFree)
	for _, v := range [...]int{k.liveUsers, k.pendingRespawns, k.sockCapEff, k.mbufCapEff,
		k.fdLimEff, k.procCapEff, k.SockHighwater, k.MbufHighwater} {
		e.Int(int64(v))
	}
	e.Bool(k.squeezed)
}

// walkerRef names a kernel-code walker: its region and context index.
type walkerRef struct {
	region string
	ctx    int
}

func tidOf(t *Thread) uint32 {
	if t == nil {
		return 0
	}
	return t.tid
}

// saveThread writes one thread; a thread running a user program also
// carries the program's identity, walker and script state.
func saveThread(e *checkpoint.Enc, t *Thread) {
	e.Uint(uint64(t.tid))
	e.Uint(t.pid)
	e.Uint(uint64(t.asn))
	e.Uint(uint64(t.kind))
	e.Uint(uint64(t.state))
	e.Uint(t.burst)
	e.Uint(t.sinceSched)
	e.Int(int64(t.lastCtx))
	e.Bool(t.wakeReq != nil)
	if t.wakeReq != nil {
		t.wakeReq.Save(e)
	}
	e.Int(int64(t.wakeResult))
	e.Int(int64(t.sock))
	e.Bool(t.worker)
	e.Bool(t.released)
	e.Int(int64(t.fds))
	e.Int(int64(t.slot))
	e.Bool(t.prog != nil)
	if t.prog == nil {
		return
	}
	sp, ok := t.prog.(*workload.ScriptProgram)
	if !ok {
		panic(fmt.Sprintf("kernel: thread %d runs a non-script program %T", t.tid, t.prog))
	}
	e.String(sp.ProgName)
	e.Int(int64(sp.Slot))
	sp.W.Save(e)
	e.Bool(sp.State != nil)
	if sp.State != nil {
		sp.State.Save(e)
	}
}

// saveGen writes one generation-stack entry. The generator shapes are a
// closed set (see the push sites in feed.go and net.go): a Limit over a
// walker, optionally wrapped in a Tail or a modeForce. The walker a Limit
// draws from is written as a kernel region name plus walker index
// (srcRegion) or as the owning thread (srcProg); the walker's own state is
// written with its region or thread.
func saveGen(e *checkpoint.Enc, g genEntry, regionOf map[*workload.Walker]walkerRef, progOf map[*workload.Walker]uint32) {
	g.tmpl.Save(e)
	saveAction(e, &g.done)
	var inner *workload.Limit
	switch gen := g.g.(type) {
	case *workload.Limit:
		e.Uint(uint64(wrapNone))
		inner = gen
	case *workload.Tail:
		e.Uint(uint64(wrapTail))
		e.Uint(uint64(len(gen.Extra)))
		for i := range gen.Extra {
			gen.Extra[i].Save(e)
		}
		e.Int(int64(gen.Pos))
		if gen.G != nil {
			inner, _ = gen.G.(*workload.Limit)
			if inner == nil {
				panic(fmt.Sprintf("kernel: unsavable tail inner generator %T", gen.G))
			}
		}
	case *modeForce:
		e.Uint(uint64(wrapMode))
		e.Uint(uint64(gen.mode))
		inner, _ = gen.g.(*workload.Limit)
		if inner == nil {
			panic(fmt.Sprintf("kernel: unsavable modeForce inner generator %T", gen.g))
		}
	default:
		panic(fmt.Sprintf("kernel: unsavable generator %T", g.g))
	}
	e.Bool(inner != nil)
	if inner == nil {
		return
	}
	e.Uint(inner.N)
	w, ok := inner.G.(*workload.Walker)
	if !ok {
		panic(fmt.Sprintf("kernel: unsavable limit source %T", inner.G))
	}
	if ref, ok := regionOf[w]; ok {
		e.Uint(uint64(srcRegion))
		e.String(ref.region)
		e.Int(int64(ref.ctx))
		return
	}
	if tid, ok := progOf[w]; ok {
		e.Uint(uint64(srcProg))
		e.Uint(uint64(tid))
		return
	}
	panic("kernel: stack walker is neither kernel code nor a program")
}

func saveAction(e *checkpoint.Enc, a *action) {
	e.Uint(uint64(a.Kind))
	e.Uint(uint64(a.TID))
	a.Req.Save(e)
	e.Int(int64(a.Res))
	e.Uint(uint64(len(a.Batch)))
	for i := range a.Batch {
		a.Batch[i].Save(e)
	}
}

// Flag bits of a socket in the kernel section.
const (
	sockListen = 1 << iota
	sockClosed
	sockServed
	sockFree
)

// saveNet writes the network stack. An accept queue is written as its live
// window acceptQ[acceptHead:] (the head index is normalized away), and the
// connection index sorted by connection.
func (k *Kernel) saveNet(e *checkpoint.Enc) {
	ns := k.net
	e.Uint(uint64(len(ns.socks)))
	for _, so := range ns.socks {
		e.Uint(checkpoint.Flags(so.listen, so.closed, so.served, so.free))
		e.Int(int64(so.conn))
		checkpoint.PutInts(e, so.acceptQ[so.acceptHead:])
		e.Int(int64(so.data))
		e.Uint(uint64(len(so.waiters)))
		for _, w := range so.waiters {
			e.Uint(uint64(w.tid))
		}
		e.Uint(uint64(so.owner))
		e.Uint(so.lastActive)
		e.Int(int64(so.reqBytes))
	}
	type connSock struct{ conn, sock int }
	byConn := make([]connSock, 0, ns.byConn.Len())
	ns.byConn.Range(func(conn, sock int) { byConn = append(byConn, connSock{conn, sock}) })
	sort.Slice(byConn, func(i, j int) bool { return byConn[i].conn < byConn[j].conn })
	e.Uint(uint64(len(byConn)))
	for _, cs := range byConn {
		e.Int(int64(cs.conn))
		e.Int(int64(cs.sock))
	}
	checkpoint.PutInts(e, ns.sockFree)
	e.Uint(uint64(len(ns.pending)))
	for i := range ns.pending {
		ns.pending[i].Save(e)
	}
	e.Uint(ns.now)
	e.Uint(ns.ticks)
}

// Load overwrites the kernel's mutable state from a section written by
// Save on a kernel with the same configuration. User programs are rebuilt
// through factory and their walker and script state loaded in place; it
// returns the restored programs in thread order so the caller can rebuild
// its own program list. References to unknown threads, walkers or sockets
// are damage.
func (k *Kernel) Load(d *checkpoint.Dec, factory ProgFactory) []*workload.ScriptProgram {
	k.rng.Load(d)
	k.Mem.Load(d)
	for n := d.Len(); n > 0 && !d.Failed(); n-- {
		name := d.Bytes()
		rw := k.code.byName[string(name)]
		if rw == nil {
			d.Fail("unknown code region %q", name)
			return nil
		}
		if !d.Expect(len(rw.ws), "region "+rw.reg.Name+" walkers") {
			return nil
		}
		for _, w := range rw.ws {
			w.Load(d)
		}
	}

	var progs []*workload.ScriptProgram
	k.threads = truncate(k.threads)
	for n := d.Len(); n > 0 && !d.Failed(); n-- {
		t, prog := loadThread(d, factory)
		k.threads = append(k.threads, t)
		if prog != nil {
			progs = append(progs, prog)
		}
	}
	// The run queue gets a fresh array: pickNext reslices it from the
	// front, so the old one can hold stale threads below the slice.
	k.runQ = nil
	if n := d.Len(); n > 0 {
		k.runQ = make([]*Thread, n)
		for i := range k.runQ {
			k.runQ[i] = k.loadThreadRef(d, false)
		}
	}
	if !d.Expect(len(k.feeds), "contexts") {
		return nil
	}
	for i := range k.feeds {
		f := &k.feeds[i]
		f.buf = checkpoint.Resize(f.buf, d.Len())
		for j := range f.buf {
			f.buf[j].Load(d)
		}
		f.head = 0
		f.base = d.Uint()
		n := d.Len()
		f.stack = truncate(f.stack)
		for ; n > 0 && !d.Failed(); n-- {
			f.stack = append(f.stack, k.loadGen(d))
		}
		f.cur = k.loadThreadRef(d, true)
		f.idle = k.loadThreadRef(d, true)
		f.paused = d.Bool()
		f.pendingReq.Load(d)
		f.syscallRetired = d.Bool()
		f.intrNet = d.Bool()
	}
	k.loadNet(d)
	k.net.Delivered = d.Uint()
	k.net.Dropped = d.Uint()

	k.nextASN = uint16(d.Uint())
	k.asnEpoch = d.Uint()
	k.nextTID = uint32(d.Uint())
	k.nextPID = d.Uint()
	k.rrIntCtx = int(d.Int())
	k.lastTick = d.Uint()
	for _, p := range [...]*uint64{&k.ContextSwitches, &k.Preemptions, &k.ASNRecycles,
		&k.ClockInterrupts, &k.NetInterrupts, &k.IdleScheduled, &k.LockContentions, &k.SpinInsts,
		&k.DiskReads, &k.WorkerCrashes, &k.WorkerRespawns, &k.ConnsRefused, &k.ReapedIdle,
		&k.ReapedSlowloris, &k.SockPoolRejects, &k.MbufDrops, &k.FDRejects, &k.ForkRejects} {
		*p = d.Uint()
	}
	checkpoint.LoadUints(d, k.SyscallCount[:], "syscall counts")
	checkpoint.LoadUints(d, k.VMFaults[:], "VM faults")
	checkpoint.LoadUints(d, k.SvcInstByRes[:], "service instructions")
	checkpoint.LoadUints(d, k.lockHolder[:], "lock holders")
	checkpoint.LoadUints(d, k.procSlots, "process table")
	k.procFree = checkpoint.GetInts(d, k.procFree)
	for _, slot := range k.procFree {
		if slot < 0 || slot >= len(k.procSlots) {
			d.Fail("free process slot %d outside a table of %d", slot, len(k.procSlots))
			k.procFree = k.procFree[:0]
			break
		}
	}
	for _, p := range [...]*int{&k.liveUsers, &k.pendingRespawns, &k.sockCapEff, &k.mbufCapEff,
		&k.fdLimEff, &k.procCapEff, &k.SockHighwater, &k.MbufHighwater} {
		*p = int(d.Int())
	}
	k.squeezed = d.Bool()
	return progs
}

// truncate empties a reused slice of pointers for refilling, clearing its
// whole backing array so stale entries past the new length do not keep
// the previous state's threads, programs and walkers alive.
func truncate[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// loadThread reads one thread written by saveThread, rebuilding its
// program through factory.
func loadThread(d *checkpoint.Dec, factory ProgFactory) (*Thread, *workload.ScriptProgram) {
	t := &Thread{
		tid:        uint32(d.Uint()),
		pid:        d.Uint(),
		asn:        uint16(d.Uint()),
		kind:       threadKind(d.Uint()),
		state:      threadState(d.Uint()),
		burst:      d.Uint(),
		sinceSched: d.Uint(),
		lastCtx:    int(d.Int()),
	}
	if d.Bool() {
		t.wakeReq = &sys.Request{}
		t.wakeReq.Load(d)
	}
	t.wakeResult = int(d.Int())
	t.sock = int(d.Int())
	t.worker = d.Bool()
	t.released = d.Bool()
	t.fds = int(d.Int())
	t.slot = int(d.Int())
	if !d.Bool() || d.Failed() {
		return t, nil
	}
	name := d.String()
	slot := int(d.Int())
	if d.Failed() {
		return t, nil
	}
	var prog *workload.ScriptProgram
	if factory != nil {
		prog = factory(name, slot)
	}
	if prog == nil {
		d.Fail("no factory rebuild for program %q slot %d", name, slot)
		return t, nil
	}
	prog.W.Load(d)
	if hasState := d.Bool(); hasState != (prog.State != nil) {
		d.Fail("program %q slot %d: section has script state %v, program %v", name, slot, hasState, prog.State != nil)
		return t, nil
	}
	if prog.State != nil {
		prog.State.Load(d)
	}
	t.prog = prog
	return t, prog
}

// loadThreadRef reads a TID and resolves it; 0 is nil where allowed.
func (k *Kernel) loadThreadRef(d *checkpoint.Dec, zeroOK bool) *Thread {
	tid := uint32(d.Uint())
	if d.Failed() || (tid == 0 && zeroOK) {
		return nil
	}
	t := k.threadByTID(tid)
	if t == nil {
		d.Fail("reference to unknown thread %d", tid)
	}
	return t
}

// loadGen rebuilds one generation-stack entry written by saveGen.
func (k *Kernel) loadGen(d *checkpoint.Dec) genEntry {
	var g genEntry
	g.tmpl.Load(d)
	loadAction(d, &g.done)
	wrap := d.Uint()
	var tail *workload.Tail
	var mode isa.Mode
	switch uint8(wrap) {
	case wrapNone:
	case wrapTail:
		tail = &workload.Tail{Extra: make([]isa.Inst, d.Len())}
		for i := range tail.Extra {
			tail.Extra[i].Load(d)
		}
		tail.Pos = int(d.Int())
	case wrapMode:
		mode = isa.Mode(d.Index(isa.NumModes))
	default:
		d.Fail("unknown generator wrapper %d", wrap)
		return g
	}
	var inner *workload.Limit
	if d.Bool() {
		n := d.Uint()
		var w *workload.Walker
		switch src := d.Uint(); uint8(src) {
		case srcRegion:
			name := d.Bytes()
			ctx := d.Int()
			rw := k.code.byName[string(name)]
			if rw == nil || ctx < 0 || ctx >= int64(len(rw.ws)) {
				d.Fail("unknown code walker %s/%d", name, ctx)
				return g
			}
			w = rw.ws[ctx]
		case srcProg:
			t := k.threadByTID(uint32(d.Uint()))
			if t == nil || t.prog == nil {
				d.Fail("unknown program walker")
				return g
			}
			w = t.prog.Walker()
		default:
			d.Fail("unknown generator source %d", src)
			return g
		}
		inner = k.newLimit(w, n)
	}
	if d.Failed() {
		return g
	}
	switch uint8(wrap) {
	case wrapNone:
		if inner == nil {
			d.Fail("bare entry with no inner generator")
			return g
		}
		g.g = inner
	case wrapTail:
		if inner != nil {
			tail.G = inner
		}
		g.g = tail
	case wrapMode:
		if inner == nil {
			d.Fail("modeForce entry with no inner generator")
			return g
		}
		g.g = &modeForce{g: inner, mode: mode}
	}
	return g
}

func loadAction(d *checkpoint.Dec, a *action) {
	a.Kind = actionKind(d.Uint())
	a.TID = uint32(d.Uint())
	a.Req.Load(d)
	a.Res = int(d.Int())
	n := d.Len()
	if n > netisrBatch {
		d.Fail("completion batch of %d frames, netisr takes %d", n, netisrBatch)
		n = 0
	}
	a.Batch = nil
	if n > 0 {
		a.Batch = make([]Frame, n)
		for i := range a.Batch {
			a.Batch[i].Load(d)
		}
	}
}

// loadNet reads the network stack written by saveNet into the existing
// socket table (sockets keep their queue capacity), then rebuilds the
// derived state the section does not carry: the connection index, the
// per-thread owned-socket lists and the idle-timeout wheel.
func (k *Kernel) loadNet(d *checkpoint.Dec) {
	ns := k.net
	n := d.Len()
	if n > k.cfg.SocketTableSize+1 {
		d.Fail("%d sockets, table holds %d", n, k.cfg.SocketTableSize)
		return
	}
	for len(ns.socks) < n {
		ns.socks = append(ns.socks, &socket{})
	}
	clear(ns.socks[n:])
	ns.socks = ns.socks[:n]
	for id, so := range ns.socks {
		// The accept queue's array is reused; the waiter list is not:
		// popWaiter reslices it from the front, so its array can hold
		// stale thread pointers below the slice that truncate cannot reach.
		acceptQ := so.acceptQ[:0]
		*so = socket{id: id}
		flags := d.Uint()
		so.listen = flags&sockListen != 0
		so.closed = flags&sockClosed != 0
		so.served = flags&sockServed != 0
		so.free = flags&sockFree != 0
		so.conn = int(d.Int())
		so.acceptQ = checkpoint.GetInts(d, acceptQ)
		so.data = int(d.Int())
		if n := d.Len(); n > 0 {
			so.waiters = make([]*Thread, n)
			for i := range so.waiters {
				so.waiters[i] = k.loadThreadRef(d, false)
			}
		}
		so.owner = uint32(d.Uint())
		so.lastActive = d.Uint()
		so.reqBytes = int(d.Int())
		if d.Failed() {
			return
		}
	}
	m := d.Len()
	ns.byConn.Reset(m)
	for ; m > 0 && !d.Failed(); m-- {
		conn := int(d.Int())
		ns.byConn.Put(conn, int(d.Int()))
	}
	ns.sockFree = checkpoint.GetInts(d, ns.sockFree)
	for _, id := range ns.sockFree {
		if id < 0 || id >= len(ns.socks) {
			d.Fail("free socket %d outside a table of %d", id, len(ns.socks))
			ns.sockFree = ns.sockFree[:0]
			break
		}
	}
	ns.pending = checkpoint.Resize(ns.pending, d.Len())
	for i := range ns.pending {
		ns.pending[i].Load(d)
	}
	ns.now = d.Uint()
	ns.ticks = d.Uint()
	if d.Failed() {
		return
	}

	// Rebuild derived network state the section knows nothing about
	// (checkpoint-by-derivation): per-thread owned-socket lists, and the
	// idle-timeout wheel. Loaded threads and reset sockets already zeroed
	// ownHead, the intrusive links, idleWakeAt, and the dirty flag; the
	// scratch rings are always empty between cycles.
	ns.dirtyRing = ns.dirtyRing[:0]
	ns.idleDue = ns.idleDue[:0]
	ns.reapScratch = ns.reapScratch[:0]
	ns.idleWheel.Reset(ns.ticks)
	for _, so := range ns.socks {
		if so.free || so.listen || so.owner == 0 {
			continue
		}
		t := k.threadByTID(so.owner)
		if t == nil {
			// An orphaned socket (owner thread gone) is a state-consistency
			// problem for the auditor to flag, not a restore failure.
			continue
		}
		ns.linkOwned(t, so)
		if !so.closed {
			// Canonical re-arm at lastActive+timeout: the live wheel may have
			// held a staler deadline, but a stale fire only re-arms lazily to
			// this same tick, so reap ticks are identical either way.
			k.armIdle(so)
		}
	}
}

// Flag bits of a frame in a checkpoint section.
const (
	frameOpen = 1 << iota
	frameClose
	frameAck
	frameCorrupt
)

// Save writes the frame to a checkpoint section.
func (f *Frame) Save(e *checkpoint.Enc) {
	e.Int(int64(f.Conn))
	e.Int(int64(f.Bytes))
	e.Uint(checkpoint.Flags(f.Open, f.Close, f.Ack, f.Corrupt))
}

// Load reads a frame written by Save.
func (f *Frame) Load(d *checkpoint.Dec) {
	f.Conn = int(d.Int())
	f.Bytes = int(d.Int())
	flags := d.Uint()
	f.Open = flags&frameOpen != 0
	f.Close = flags&frameClose != 0
	f.Ack = flags&frameAck != 0
	f.Corrupt = flags&frameCorrupt != 0
}
