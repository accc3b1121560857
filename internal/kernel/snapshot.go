// Checkpoint serialization for the kernel: threads, per-context generation
// state (including mid-flight generation stacks), the network stack, the
// codebase walkers, and every counter. Pointers (threads, walkers) are
// written as identifiers — TIDs for threads, (region, context) pairs for
// kernel-code walkers — and relinked on load.
package kernel

import (
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/sys"
	"repro/internal/workload"
)

// Generation-stack entry shapes (genEntry.wrap) and walker sources (see
// syncWalker).
const (
	wrapNone uint8 = iota // a bare walker excerpt
	wrapTail              // one tail instruction, after an optional walker excerpt
	wrapMode              // a walker excerpt forced to one mode
)

const (
	srcRegion uint8 = iota // a kernel-code region walker
	srcProg                // a user program's walker
)

// ProgFactory rebuilds the structure of a user program identified by
// (name, slot); the checkpoint layer then overwrites its walker and script
// state. core provides one per workload; it returns nil for a program it
// cannot build.
type ProgFactory func(name string, slot int) *workload.ScriptProgram

// Sync syncs the kernel's mutable state, on a kernel with the same
// configuration when reading. Reading, user programs are rebuilt through
// factory and their walker and script state synced in place; Sync returns
// the restored programs in thread order so the caller can rebuild its own
// program list. References to unknown threads, walkers or sockets are
// damage.
func (k *Kernel) Sync(c *checkpoint.Codec, factory ProgFactory) []*workload.ScriptProgram {
	k.rng.Sync(c)
	k.Mem.Sync(c)

	// Kernel-code walkers, in region-name order.
	names := make([]string, 0, len(k.code.byName))
	for name := range k.code.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	if !c.Expect(len(names), "code regions") {
		return nil
	}
	for _, name := range names {
		rw := k.code.byName[name]
		if !c.Match(name, "code region") || !c.Expect(len(rw.ws), "code region walkers") {
			return nil
		}
		for _, w := range rw.ws {
			w.Sync(c)
		}
	}

	if c.Loading() {
		// Relinking: threads are rebuilt, so no stale one stays reachable.
		k.threads = truncate(k.threads)
	}
	checkpoint.Len(c, &k.threads, -1, "threads")
	var progs []*workload.ScriptProgram
	for i, t := range k.threads {
		if c.Failed() {
			k.threads = k.threads[:i] // build no threads from damage
			break
		}
		if t == nil {
			t = &Thread{}
			k.threads[i] = t
		}
		if prog := syncThread(c, t, factory); prog != nil {
			progs = append(progs, prog)
		}
	}
	if c.Loading() {
		// Relinking: the run queue gets a fresh array. pickNext reslices
		// it from the front, so the old one can hold stale threads below
		// the slice.
		k.runQ = nil
	}
	checkpoint.Len(c, &k.runQ, -1, "run queue")
	for i := range k.runQ {
		k.syncThreadRef(c, &k.runQ[i], false)
	}
	var refs walkerRefs
	if !c.Loading() {
		// Relinking: stack walkers are written by name.
		refs = k.walkerRefs(names)
	}
	if !c.Expect(len(k.feeds), "contexts") {
		return nil
	}
	for i := range k.feeds {
		k.syncFeed(c, &k.feeds[i], refs)
	}
	k.syncNet(c)
	c.Uint(&k.net.Delivered)
	c.Uint(&k.net.Dropped)

	checkpoint.U(c, &k.nextASN)
	c.Uint(&k.asnEpoch)
	checkpoint.U(c, &k.nextTID)
	c.Uint(&k.nextPID)
	checkpoint.I(c, &k.rrIntCtx)
	c.Uint(&k.lastTick)
	for _, p := range [...]*uint64{&k.ContextSwitches, &k.Preemptions, &k.ASNRecycles,
		&k.ClockInterrupts, &k.NetInterrupts, &k.IdleScheduled, &k.LockContentions, &k.SpinInsts,
		&k.DiskReads, &k.WorkerCrashes, &k.WorkerRespawns, &k.ConnsRefused, &k.ReapedIdle,
		&k.ReapedSlowloris, &k.SockPoolRejects, &k.MbufDrops, &k.FDRejects, &k.ForkRejects} {
		c.Uint(p)
	}
	checkpoint.Array(c, k.SyscallCount[:], "syscall counts")
	checkpoint.Array(c, k.VMFaults[:], "VM faults")
	checkpoint.Array(c, k.SvcInstByRes[:], "service instructions")
	checkpoint.Array(c, k.lockHolder[:], "lock holders")
	checkpoint.Array(c, k.procSlots, "process table")
	checkpoint.Slice(c, &k.procFree, -1, "free process slots")
	if c.Loading() {
		// Checking input: free slots lie inside the table.
		for _, slot := range k.procFree {
			if slot < 0 || slot >= len(k.procSlots) {
				c.Fail("free process slot %d outside a table of %d", slot, len(k.procSlots))
				k.procFree = k.procFree[:0]
				break
			}
		}
	}
	for _, p := range [...]*int{&k.liveUsers, &k.pendingRespawns, &k.sockCapEff, &k.mbufCapEff,
		&k.fdLimEff, &k.procCapEff, &k.SockHighwater, &k.MbufHighwater} {
		checkpoint.I(c, p)
	}
	c.Bool(&k.squeezed)
	return progs
}

// walkerRef names a kernel-code walker: its region and context index.
type walkerRef struct {
	region string
	ctx    int
}

// walkerRefs names every walker a generation-stack entry can hold: a
// kernel-code walker by region and context, a program's by its thread.
type walkerRefs struct {
	region map[*workload.Walker]walkerRef
	prog   map[*workload.Walker]uint32
}

func (k *Kernel) walkerRefs(names []string) walkerRefs {
	refs := walkerRefs{region: map[*workload.Walker]walkerRef{}, prog: map[*workload.Walker]uint32{}}
	for _, name := range names {
		for i, w := range k.code.byName[name].ws {
			refs.region[w] = walkerRef{region: name, ctx: i}
		}
	}
	for _, t := range k.threads {
		if t.prog != nil {
			refs.prog[t.prog.W] = t.tid
		}
	}
	return refs
}

func tidOf(t *Thread) uint32 {
	if t == nil {
		return 0
	}
	return t.tid
}

// truncate empties a reused slice of pointers for refilling, clearing its
// whole backing array so stale entries past the new length do not keep
// the previous state's threads, programs and walkers alive.
func truncate[T any](s []T) []T {
	clear(s[:cap(s)])
	return s[:0]
}

// syncThread syncs one thread; a thread running a user program also
// carries the program's identity, walker and script state. Reading, the
// program is rebuilt through factory; syncThread returns it.
func syncThread(c *checkpoint.Codec, t *Thread, factory ProgFactory) *workload.ScriptProgram {
	checkpoint.U(c, &t.tid)
	c.Uint(&t.pid)
	checkpoint.U(c, &t.asn)
	checkpoint.U(c, &t.kind)
	checkpoint.U(c, &t.state)
	c.Uint(&t.burst)
	c.Uint(&t.sinceSched)
	checkpoint.I(c, &t.lastCtx)
	wake := t.wakeReq != nil
	c.Bool(&wake)
	if wake {
		if t.wakeReq == nil {
			t.wakeReq = &sys.Request{}
		}
		t.wakeReq.Sync(c)
	}
	checkpoint.I(c, &t.wakeResult)
	checkpoint.I(c, &t.sock)
	c.Bool(&t.worker)
	c.Bool(&t.released)
	checkpoint.I(c, &t.fds)
	checkpoint.I(c, &t.slot)
	hasProg := t.prog != nil
	c.Bool(&hasProg)
	if !hasProg || c.Failed() {
		return nil
	}
	prog := t.prog
	var name string
	var slot int
	if prog != nil {
		name, slot = prog.ProgName, prog.Slot
	}
	c.String(&name)
	checkpoint.I(c, &slot)
	if c.Loading() {
		// Relinking: the program is rebuilt from its identity.
		if c.Failed() {
			return nil
		}
		if factory != nil {
			prog = factory(name, slot)
		}
		if prog == nil {
			c.Fail("no factory rebuild for program %q slot %d", name, slot)
			return nil
		}
	}
	prog.W.Sync(c)
	hasState := prog.State != nil
	c.Bool(&hasState)
	if hasState != (prog.State != nil) {
		c.Fail("program %q slot %d: section has script state %v, program %v", name, slot, hasState, prog.State != nil)
		return nil
	}
	if prog.State != nil {
		prog.State.Sync(c)
	}
	t.prog = prog
	return prog
}

// syncThreadRef syncs a thread reference as its TID, 0 for nil where
// zeroOK.
func (k *Kernel) syncThreadRef(c *checkpoint.Codec, p **Thread, zeroOK bool) {
	tid := tidOf(*p)
	checkpoint.U(c, &tid)
	if !c.Loading() || c.Failed() {
		return
	}
	// Relinking: the TID is resolved.
	*p = nil
	if tid == 0 && zeroOK {
		return
	}
	if *p = k.threadByTID(tid); *p == nil {
		c.Fail("reference to unknown thread %d", tid)
	}
}

// syncFeed syncs one context's generation state. The buffer is compacted
// first, so the section holds its live window and no head index.
func (k *Kernel) syncFeed(c *checkpoint.Codec, f *ctxFeed, refs walkerRefs) {
	f.compact()
	checkpoint.Len(c, &f.buf, -1, "feed buffer")
	for j := range f.buf {
		f.buf[j].Sync(c)
	}
	c.Uint(&f.base)
	if c.Loading() {
		// Relinking: stack entries are rebuilt, so no stale walker stays
		// reachable.
		f.stack = truncate(f.stack)
	}
	checkpoint.Len(c, &f.stack, -1, "generation stack")
	for j := range f.stack {
		k.syncGen(c, &f.stack[j], refs)
	}
	k.syncThreadRef(c, &f.cur, true)
	k.syncThreadRef(c, &f.idle, true)
	c.Bool(&f.paused)
	f.pendingReq.Sync(c)
	c.Bool(&f.syscallRetired)
	c.Bool(&f.intrNet)
}

// syncGen syncs one generation-stack entry: its shape, the shape's fields,
// then whether a walker is attached and, if so, the count left and the
// walker's source (see syncWalker).
func (k *Kernel) syncGen(c *checkpoint.Codec, g *genEntry, refs walkerRefs) {
	g.tmpl.Sync(c)
	syncAction(c, &g.done)
	checkpoint.U(c, &g.wrap)
	switch g.wrap {
	case wrapNone:
	case wrapTail:
		n := 1 // the tail's instruction count: always one
		checkpoint.U(c, &n)
		if n != 1 {
			c.Fail("tail of %d instructions, want 1", n)
			return
		}
		g.tail.Sync(c)
		checkpoint.I(c, &g.pos)
		if g.pos < 0 || g.pos > 1 {
			c.Fail("tail position %d outside its 1 instruction", g.pos)
			return
		}
	case wrapMode:
		checkpoint.Index(c, &g.mode, isa.NumModes)
	default:
		c.Fail("unknown generator wrapper %d", g.wrap)
		return
	}
	hasWalker := g.w != nil
	c.Bool(&hasWalker)
	if hasWalker {
		c.Uint(&g.n)
		k.syncWalker(c, &g.w, refs)
	}
	if !c.Failed() && g.w == nil && g.wrap != wrapTail {
		c.Fail("generation entry of shape %d with no walker", g.wrap)
	}
}

// syncWalker syncs a stack entry's walker as its source: a kernel region
// name plus walker index (srcRegion), or the thread whose program it is
// (srcProg). The walker's own state is synced with its region or thread.
func (k *Kernel) syncWalker(c *checkpoint.Codec, p **workload.Walker, refs walkerRefs) {
	var src uint8
	var ref walkerRef
	var tid uint32
	if !c.Loading() {
		// Relinking: the walker is named.
		var ok bool
		if ref, ok = refs.region[*p]; ok {
			src = srcRegion
		} else if tid, ok = refs.prog[*p]; ok {
			src = srcProg
		} else {
			panic("kernel: stack walker is neither kernel code nor a program")
		}
	}
	checkpoint.U(c, &src)
	switch src {
	case srcRegion:
		c.String(&ref.region)
		checkpoint.I(c, &ref.ctx)
	case srcProg:
		checkpoint.U(c, &tid)
	default:
		c.Fail("unknown generator source %d", src)
	}
	if !c.Loading() || c.Failed() {
		return
	}
	// Relinking: the name is resolved.
	if src == srcRegion {
		rw := k.code.byName[ref.region]
		if rw == nil || ref.ctx < 0 || ref.ctx >= len(rw.ws) {
			c.Fail("unknown code walker %s/%d", ref.region, ref.ctx)
			return
		}
		*p = rw.ws[ref.ctx]
		return
	}
	t := k.threadByTID(tid)
	if t == nil || t.prog == nil {
		c.Fail("unknown program walker")
		return
	}
	*p = t.prog.W
}

// syncAction syncs a deferred action; a completion batch longer than
// netisr takes is damage.
func syncAction(c *checkpoint.Codec, a *action) {
	checkpoint.U(c, &a.Kind)
	checkpoint.U(c, &a.TID)
	a.Req.Sync(c)
	checkpoint.I(c, &a.Res)
	checkpoint.Len(c, &a.Batch, netisrBatch, "completion batch")
	for i := range a.Batch {
		a.Batch[i].Sync(c)
	}
}

// syncNet syncs the network stack into the existing socket table (sockets
// keep their queue capacity); reading, it then rebuilds the derived state
// the section does not carry: the per-thread owned-socket lists and the
// idle-timeout wheel.
func (k *Kernel) syncNet(c *checkpoint.Codec) {
	ns := k.net
	checkpoint.Len(c, &ns.socks, k.cfg.SocketTableSize+1, "sockets")
	for id, so := range ns.socks {
		if so == nil {
			so = &socket{}
			ns.socks[id] = so
		}
		k.syncSocket(c, so, id)
		if c.Failed() {
			return
		}
	}
	checkpoint.Table(c, ns.byConn)
	checkpoint.Slice(c, &ns.sockFree, -1, "free sockets")
	if c.Loading() {
		// Checking input: free sockets lie inside the table.
		for _, id := range ns.sockFree {
			if id < 0 || id >= len(ns.socks) {
				c.Fail("free socket %d outside a table of %d", id, len(ns.socks))
				ns.sockFree = ns.sockFree[:0]
				break
			}
		}
	}
	checkpoint.Len(c, &ns.pending, -1, "pending frames")
	for i := range ns.pending {
		ns.pending[i].Sync(c)
	}
	c.Uint(&ns.now)
	c.Uint(&ns.ticks)
	if !c.Loading() || c.Failed() {
		return
	}

	// Derived state: the per-thread owned-socket lists and the
	// idle-timeout wheel are rebuilt (checkpoint-by-derivation). Loaded
	// threads and reset sockets already zeroed ownHead, the intrusive
	// links, idleWakeAt, and the dirty flag; the scratch rings are always
	// empty between cycles.
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

// syncSocket syncs one socket. An accept queue is compacted first, so the
// section holds its live window and no head index.
func (k *Kernel) syncSocket(c *checkpoint.Codec, so *socket, id int) {
	if c.Loading() {
		// Derived state: a loaded socket starts from zero (its links, idle
		// deadline and dirty flag are rebuilt after the load); the accept
		// queue's array is reused, the waiter list's is not: popWaiter
		// reslices it from the front, so its array can hold stale thread
		// pointers below the slice.
		*so = socket{id: id, acceptQ: so.acceptQ[:0]}
	}
	so.compactAccept()
	c.Flags(&so.listen, &so.closed, &so.served, &so.free)
	checkpoint.I(c, &so.conn)
	checkpoint.Slice(c, &so.acceptQ, -1, "accept queue")
	checkpoint.I(c, &so.data)
	checkpoint.Len(c, &so.waiters, -1, "socket waiters")
	for i := range so.waiters {
		k.syncThreadRef(c, &so.waiters[i], false)
	}
	checkpoint.U(c, &so.owner)
	c.Uint(&so.lastActive)
	checkpoint.I(c, &so.reqBytes)
}

// Sync syncs the frame.
func (f *Frame) Sync(c *checkpoint.Codec) {
	checkpoint.I(c, &f.Conn)
	checkpoint.I(c, &f.Bytes)
	c.Flags(&f.Open, &f.Close, &f.Ack, &f.Corrupt)
}
