package kernel

import (
	"slices"

	"repro/internal/flatmap"
	"repro/internal/mem"
	"repro/internal/sys"
	"repro/internal/timerwheel"
)

// Frame is one unit of network traffic crossing the simulated NIC (a
// request or response segment on a connection).
type Frame struct {
	// Conn identifies the connection.
	Conn int
	// Bytes is the payload size.
	Bytes int
	// Open marks a new connection (SYN); Close tears it down (FIN).
	Open, Close bool
	// Ack marks a bare acknowledgment: protocol-stack work with no data
	// to deliver.
	Ack bool
	// Corrupt marks a frame damaged in transit (fault injection): the
	// receiver pays the protocol-stack cost, then discards it.
	Corrupt bool
}

// NIC is the device interface the network simulator implements. The kernel
// polls it at the 10 ms interrupt granularity (§2.3: the simulated network
// cards interrupt the CPUs at a time granularity of 10 ms) and transmits
// server responses through it.
type NIC interface {
	// Tick advances the network to cycle now and returns the frames that
	// arrived at the host since the last tick.
	Tick(now uint64) []Frame
	// Transmit sends a frame from the host toward the clients.
	Transmit(fr Frame, now uint64)
}

// socket is a kernel socket: either the listen socket (accept queue) or a
// connection socket (byte stream).
type socket struct {
	id      int
	listen  bool
	conn    int
	acceptQ []int
	// acceptHead indexes the first live acceptQ entry: accepts advance the
	// head instead of re-slicing so the consumed prefix of the backing
	// array does not leak; the queue compacts amortized (same pattern as
	// ctxFeed in feed.go).
	acceptHead int //detlint:ignore snapshotcomplete normalized away: sections hold the compacted queue
	data       int
	closed     bool
	waiters    []*Thread
	// owner is the tid of the thread that accepted the socket (0 = none);
	// the crash-cleanup path uses it to reap a dead worker's descriptors.
	owner uint32
	// lastActive is the network tick of the socket's last activity (data
	// arrival, read, write, accept); the idle reaper keys off it.
	lastActive uint64
	// reqBytes counts request bytes received since the last response was
	// written; a reaped socket with reqBytes > 0 (or never served) is a
	// stalled request — slowloris — rather than an idle keep-alive.
	reqBytes int
	// served records that at least one response was written.
	served bool
	// free marks a recycled socket-table slot (on the sockFree list,
	// awaiting reuse by the next connection).
	free bool
	// ownPrev/ownNext link the socket into its owning thread's intrusive
	// owned-socket list (crash teardown walks it in O(owned) instead of
	// scanning the table). 0 is the end-of-list sentinel: socket 0 is the
	// listen socket, which is never owned. ownerT caches the owning
	// Thread so unlinking needs no tid lookup. Derived state: rebuilt
	// from socket owners on restore, never serialized.
	ownPrev, ownNext int
	ownerT           *Thread
	// idleWakeAt is the deadline of the socket's live idle-wheel entry
	// (0 = none); a fired entry whose Due mismatches is stale. The wheel
	// re-arms lazily: activity only moves lastActive, and a fire before
	// lastActive+timeout reschedules instead of reaping. Derived state.
	idleWakeAt uint64
	// dirty marks the socket as having pending readiness work on the
	// per-batch dirty ring (epoll-style deferred waiter wakeups). Always
	// false between deliverFrames batches.
	dirty bool
}

// acceptLen returns the number of pending (unaccepted) connections.
func (s *socket) acceptLen() int { return len(s.acceptQ) - s.acceptHead }

// popAccept removes and returns the oldest pending connection. The consumed
// prefix is reclaimed amortized: the queue resets when it drains and
// compacts once the dead prefix outweighs the live tail.
func (s *socket) popAccept() int {
	sid := s.acceptQ[s.acceptHead]
	s.acceptHead++
	if s.acceptHead == len(s.acceptQ) {
		s.acceptQ = s.acceptQ[:0]
		s.acceptHead = 0
	} else if s.acceptHead >= 64 && s.acceptHead >= len(s.acceptQ)-s.acceptHead {
		s.compactAccept()
	}
	return sid
}

// compactAccept slides the live accept queue to the front of its array.
func (s *socket) compactAccept() {
	n := copy(s.acceptQ, s.acceptQ[s.acceptHead:])
	s.acceptQ = s.acceptQ[:n]
	s.acceptHead = 0
}

// netState is the kernel's network stack state.
type netState struct {
	nic   NIC
	socks []*socket
	// byConn maps connection id -> socket id (flat free-listed table;
	// serialized as a conn-sorted pair list, as the map predecessor was).
	byConn *flatmap.IntMap
	// sockFree is the LIFO freelist of recycled socket-table slots; the
	// table is flat and free-listed so socket allocation is bounded and
	// deterministic.
	sockFree []int
	pending  []Frame // frames awaiting netisr processing
	now      uint64
	// ticks counts 10 ms network ticks; idle timers are expressed in it.
	ticks uint64 //detlint:ignore counterflow tick clock for idle timers, not a metric
	// idleWheel holds one entry per idle-timeout candidate socket (stamped
	// via socket.idleWakeAt); reapIdle advances it each tick instead of
	// scanning the socket table. Derived state: rebuilt on restore.
	idleWheel *timerwheel.Wheel
	// idleDue is reapIdle's per-tick scratch of sockets due for reaping,
	// sorted ascending so teardown order matches the old table scan.
	idleDue []int32
	// dirtyRing is deliverFrames' per-batch ring of sockets with deferred
	// readiness wakeups (drained in mark order; empty between batches).
	dirtyRing []int32
	// reapScratch is reapSockets' per-crash scratch of owned socket ids,
	// sorted ascending to match the old table scan's teardown order.
	reapScratch []int32
	// Delivered counts frames fully processed by netisr.
	Delivered uint64
	// Dropped counts frames for unknown connections or discarded as
	// corrupt after protocol processing.
	Dropped uint64
}

func newNetState() *netState {
	ns := &netState{byConn: flatmap.New(0), idleWheel: timerwheel.New(0)}
	// Socket 0 is the server's listen socket.
	ns.socks = append(ns.socks, &socket{id: 0, listen: true})
	return ns
}

func (ns *netState) tick(now uint64) []Frame {
	ns.now = now
	ns.ticks++
	if ns.nic == nil {
		return nil
	}
	return ns.nic.Tick(now)
}

func (ns *netState) sock(id int) *socket {
	if id < 0 || id >= len(ns.socks) {
		return nil
	}
	return ns.socks[id]
}

// sockInUse returns the number of live (non-free) socket-table entries.
func (ns *netState) sockInUse() int { return len(ns.socks) - len(ns.sockFree) }

// allocSocket hands out a socket-table entry: a recycled slot if one is
// free, else a fresh one while the table has room under the effective
// capacity. nil means the table is exhausted (the stack's ENOBUFS).
func (k *Kernel) allocSocket() *socket {
	ns := k.net
	if ns.sockInUse() >= k.sockCapEff {
		return nil
	}
	if n := len(ns.sockFree); n > 0 {
		id := ns.sockFree[n-1]
		ns.sockFree = ns.sockFree[:n-1]
		s := ns.socks[id]
		*s = socket{id: id}
		return s
	}
	if len(ns.socks) >= k.cfg.SocketTableSize {
		return nil
	}
	s := &socket{id: len(ns.socks)} //detlint:ignore hotalloc one-time slot growth; every later alloc reuses the freelist
	ns.socks = append(ns.socks, s)
	return s
}

// freeSocket recycles a closed connection socket's table slot. The listen
// socket is never recycled, and a slot with sleepers cannot be (they would
// wake on a stranger's socket).
func (ns *netState) freeSocket(s *socket) {
	if s.listen || s.free || len(s.waiters) > 0 {
		return
	}
	ns.unlinkOwned(s)
	id := s.id
	*s = socket{id: id, free: true}
	ns.sockFree = append(ns.sockFree, id)
}

// linkOwned pushes a just-accepted socket onto its owner's intrusive
// owned-socket list (head insert; teardown sorts, so list order is free).
func (ns *netState) linkOwned(t *Thread, s *socket) {
	s.ownerT = t
	s.ownPrev = 0
	s.ownNext = t.ownHead
	if t.ownHead != 0 {
		ns.socks[t.ownHead].ownPrev = s.id
	}
	t.ownHead = s.id
}

// unlinkOwned removes a socket from its owner's list (no-op if unowned).
func (ns *netState) unlinkOwned(s *socket) {
	t := s.ownerT
	if t == nil {
		return
	}
	if s.ownPrev != 0 {
		ns.socks[s.ownPrev].ownNext = s.ownNext
	} else if t.ownHead == s.id {
		t.ownHead = s.ownNext
	}
	if s.ownNext != 0 {
		ns.socks[s.ownNext].ownPrev = s.ownPrev
	}
	s.ownerT = nil
	s.ownPrev, s.ownNext = 0, 0
}

// armIdle schedules (or keeps) an idle-timeout wheel entry for an accepted
// socket. Later activity does not reschedule — the fire handler re-arms
// lazily off lastActive — so each socket keeps at most one live entry.
func (k *Kernel) armIdle(s *socket) {
	timeout := k.cfg.IdleTimeoutTicks
	if timeout == 0 || s.listen {
		return
	}
	d := s.lastActive + timeout
	if s.idleWakeAt != 0 && s.idleWakeAt <= d {
		return
	}
	s.idleWakeAt = d
	k.net.idleWheel.Schedule(d, int32(s.id))
}

// SetNIC attaches the network simulator.
func (k *Kernel) SetNIC(n NIC) { k.net.nic = n }

// NICStats reports the network device's frame counters — delivered to the
// protocol stack by netisr, and dropped (unknown connection or corrupt) —
// for report snapshots.
func (k *Kernel) NICStats() (delivered, dropped uint64) {
	return k.net.Delivered, k.net.Dropped
}

// ConnOf returns the connection id behind a socket file descriptor (-1 if
// unknown); workload models use it to ask the client driver what a request
// is for.
func (k *Kernel) ConnOf(fd int) int {
	s := k.net.sock(fd)
	if s == nil || s.listen {
		return -1
	}
	return s.conn
}

// ListenFD is the file descriptor of the server's listen socket.
const ListenFD = 0

// netisrBatch is the number of frames one netisr activation processes.
const netisrBatch = 4

// netisrStep pushes one batch of protocol-stack work for a netisr thread;
// it returns false when no frames are pending.
func (k *Kernel) netisrStep(ctx int, t *Thread) bool {
	ns := k.net
	if len(ns.pending) == 0 {
		return false
	}
	n := len(ns.pending)
	if n > netisrBatch {
		n = netisrBatch
	}
	batch := make([]Frame, n)
	copy(batch, ns.pending[:n])
	ns.pending = ns.pending[n:]
	f := &k.feeds[ctx]
	f.push(genEntry{
		w:    k.code.netisr.walker(ctx),
		n:    uint64(n * netisrFrameLen),
		tmpl: kthreadTmpl(t.tid, sys.CatNetisr),
		done: action{Kind: actNetisrDone, TID: t.tid, Batch: batch},
	})
	k.pushLockAcquire(ctx, t, sys.ResNet, sys.CatNetisr, 0)
	return true
}

// deliverFrames demuxes processed frames into sockets and batches
// readiness delivery epoll-style: instead of a waiter wakeup per frame,
// data/close frames mark their socket on a dirty ring that is drained once
// at the end of the batch. Wakeup order and read results are preserved
// exactly: a socket touched again mid-batch flushes first (so its sleeping
// reader observes the same intermediate state the per-frame walk produced),
// and an accept-path wakeup — which stays per-frame — flushes the whole
// ring before it fires so cross-socket wake order never inverts.
//
//detlint:hot per-tick (AppOnly) / per-netisr-batch frame demux
func (k *Kernel) deliverFrames(frames []Frame) {
	ns := k.net
	for _, fr := range frames {
		switch {
		case fr.Corrupt:
			// Damaged in transit: the stack walked the frame and dropped
			// it at the checksum.
			ns.Dropped++
		case fr.Ack:
			// Pure protocol work; nothing delivered to a socket.
		case fr.Open && !connKnown(ns, fr.Conn):
			// An accepted SYN can wake a blocked accepter immediately;
			// flush deferred readiness first to keep global wake order.
			k.drainDirty()
			ls := ns.socks[ListenFD]
			if ls.acceptLen() >= k.backlogLimit() {
				// Listen queue full: the SYN is dropped (Digital Unix's
				// somaxconn behavior). The client sees it as loss and
				// recovers through its retransmit path.
				ns.Dropped++
				k.ConnsRefused++
				continue
			}
			s := k.allocSocket()
			if s == nil {
				// Socket table exhausted: the stack fails the PCB
				// allocation (ENOBUFS) and the SYN is dropped; the client
				// recovers through its retransmit path.
				ns.Dropped++
				k.SockPoolRejects++
				continue
			}
			s.conn = fr.Conn
			s.data = fr.Bytes
			s.lastActive = ns.ticks
			s.reqBytes = fr.Bytes
			ns.byConn.Put(fr.Conn, s.id)
			ls.acceptQ = append(ls.acceptQ, s.id)
			if inUse := ns.sockInUse(); inUse > k.SockHighwater {
				k.SockHighwater = inUse
			}
			if w := popWaiter(ls); w != nil {
				k.completeAccept(w, ls)
			}
		default:
			sid, ok := ns.byConn.Get(fr.Conn)
			if !ok {
				ns.Dropped++
				continue
			}
			s := ns.socks[sid]
			if s.dirty {
				// Second touch this batch: deliver the earlier readiness
				// before the new mutation lands, exactly as the per-frame
				// walk would have.
				k.flushDirty(s)
			}
			s.lastActive = ns.ticks
			if fr.Close {
				s.closed = true
			} else {
				s.data += fr.Bytes
				s.reqBytes += fr.Bytes
			}
			s.dirty = true
			ns.dirtyRing = append(ns.dirtyRing, int32(sid))
		}
		ns.Delivered++
	}
	k.drainDirty()
}

// flushDirty delivers one socket's deferred readiness.
func (k *Kernel) flushDirty(s *socket) {
	s.dirty = false
	if w := popWaiter(s); w != nil {
		k.completeRead(w, s)
	}
}

// drainDirty delivers all deferred readiness in mark order and empties the
// ring. Re-marked sockets appear twice; the stale occurrence is skipped by
// the dirty flag.
//
//detlint:hot readiness batch drain on the frame-delivery path
func (k *Kernel) drainDirty() {
	ns := k.net
	for _, sid := range ns.dirtyRing {
		if s := ns.socks[sid]; s.dirty {
			k.flushDirty(s)
		}
	}
	ns.dirtyRing = ns.dirtyRing[:0]
}

// connKnown reports whether a connection already has a socket (a
// retransmitted SYN under fault injection must not open a duplicate; it is
// demuxed as data instead).
func connKnown(ns *netState, conn int) bool {
	_, ok := ns.byConn.Get(conn)
	return ok
}

// reapSockets closes every connection socket owned by a dead thread (the
// kernel closing a crashed process's descriptors; TCP sends the reset the
// client sees) and removes the thread from the one waiter queue it may be
// sleeping on. Cost is O(owned sockets): the owned-socket intrusive list
// replaces the old full-table scan, and t.sock replaces the old
// every-waiter-queue sweep. It returns the number of sockets visited so
// regression tests can pin the complexity claim.
//
//detlint:hot crash teardown; bounded by the dead thread's descriptors
func (k *Kernel) reapSockets(t *Thread) int {
	ns := k.net
	// A thread sleeps on at most one socket at a time (accept, select, or
	// read); t.sock tracks which.
	if t.sock >= 0 {
		if s := ns.sock(t.sock); s != nil {
			kept := s.waiters[:0]
			for _, w := range s.waiters {
				if w != t {
					kept = append(kept, w)
				}
			}
			s.waiters = kept
		}
		t.sock = -1
	}
	// Collect the owned list, then tear down in ascending id order — the
	// order the old table scan produced (FIN transmit order feeds the
	// fault injector's streams, so it is behaviorally significant).
	ns.reapScratch = ns.reapScratch[:0]
	for sid := t.ownHead; sid != 0; sid = ns.socks[sid].ownNext {
		ns.reapScratch = append(ns.reapScratch, int32(sid))
	}
	slices.Sort(ns.reapScratch)
	for _, sid := range ns.reapScratch {
		s := ns.socks[sid]
		if !s.closed {
			s.closed = true
			ns.byConn.Delete(s.conn)
			if ns.nic != nil {
				ns.nic.Transmit(Frame{Conn: s.conn, Close: true}, ns.now)
			}
		}
		// The dead process's descriptor table is gone: recycle the slot
		// even if the socket was already closed (e.g. by the idle reaper)
		// but never released — no FD or socket may leak past teardown.
		ns.freeSocket(s)
	}
	visited := len(ns.reapScratch)
	t.fds = 0
	return visited
}

// backlogLimit returns the effective accept-backlog bound.
func (k *Kernel) backlogLimit() int {
	if k.cfg.AcceptBacklog > 0 {
		return k.cfg.AcceptBacklog
	}
	return DefaultAcceptBacklog
}

// reapIdle tears down accepted connection sockets that have seen no
// activity for IdleTimeoutTicks network ticks: stalled slowloris requests
// and idle keep-alive connections both go through the same path the crash
// reaper uses — mark closed, drop the demux entry, send the client a FIN,
// and wake any blocked reader with 0 so the owning worker runs its ordinary
// connection-close path. Unaccepted connections still in the backlog are
// not timed; the backlog bound is what limits those.
//
// The reaper is driven by the lastActive timestamp wheel instead of a
// per-tick full-table scan: each accepted socket carries at most one wheel
// entry (armed at accept), activity only moves lastActive, and a fired
// entry for a socket that has since been active re-arms lazily at
// lastActive+timeout. Per tick this costs O(entries due), and each socket
// fires at most ceil(idle span / timeout) times over its life — the same
// reap ticks as the scan, independent of table size. Due sockets are torn
// down in ascending id order, matching the scan (FIN transmit order feeds
// the fault injector's streams).
//
//detlint:hot per-tick idle-timeout sweep; O(due), not O(table)
func (k *Kernel) reapIdle() {
	ns := k.net
	timeout := k.cfg.IdleTimeoutTicks
	ns.idleDue = ns.idleDue[:0]
	for _, e := range ns.idleWheel.Advance(ns.ticks) {
		s := ns.sock(int(e.ID))
		if s == nil || e.Due != s.idleWakeAt {
			continue // stale entry: socket re-armed later or recycled
		}
		s.idleWakeAt = 0
		if s.listen || s.free || s.closed || s.owner == 0 {
			continue
		}
		if ns.ticks-s.lastActive < timeout {
			// Active since arming: push the deadline out lazily.
			k.armIdle(s)
			continue
		}
		ns.idleDue = append(ns.idleDue, e.ID)
	}
	slices.Sort(ns.idleDue)
	for _, sid := range ns.idleDue {
		s := ns.socks[sid]
		if s.served && s.reqBytes == 0 {
			k.ReapedIdle++
		} else {
			k.ReapedSlowloris++
		}
		s.closed = true
		ns.byConn.Delete(s.conn)
		if ns.nic != nil {
			ns.nic.Transmit(Frame{Conn: s.conn, Close: true}, ns.now)
		}
		if w := popWaiter(s); w != nil {
			k.completeRead(w, s)
		}
	}
}

// popWaiter removes and returns the oldest thread sleeping on a socket.
func popWaiter(s *socket) *Thread {
	if len(s.waiters) == 0 {
		return nil
	}
	w := s.waiters[0]
	s.waiters = s.waiters[1:]
	w.sock = -1
	return w
}

// sleepOn parks a thread on a socket's waiter queue and records which
// socket it sleeps on (a thread waits on at most one; crash teardown uses
// t.sock for O(1) waiter removal).
func sleepOn(s *socket, t *Thread) {
	s.waiters = append(s.waiters, t)
	t.sock = s.id
}

// completeAccept finishes a blocked accept: pop a pending connection.
func (k *Kernel) completeAccept(t *Thread, ls *socket) {
	if ls.acceptLen() == 0 {
		sleepOn(ls, t)
		return
	}
	sid := ls.popAccept()
	so := k.net.socks[sid]
	so.owner = t.tid
	so.lastActive = k.net.ticks
	k.net.linkOwned(t, so)
	k.armIdle(so)
	t.fds++
	t.wakeResult = sid
	k.wake(t)
}

// completeRead finishes a blocked read: report available bytes (0 = peer
// closed).
func (k *Kernel) completeRead(t *Thread, s *socket) {
	n := s.data
	s.data = 0
	if n == 0 && !s.closed {
		sleepOn(s, t)
		return
	}
	t.wakeResult = n
	k.wake(t)
}

// syscallEffect applies a system call's semantic effect and returns its
// result, or block=true if the calling thread must sleep.
func (k *Kernel) syscallEffect(t *Thread, req sys.Request) (res int, block bool) {
	ns := k.net
	switch req.Num {
	case sys.SysAccept:
		ls := ns.sock(ListenFD)
		if ls == nil {
			return -1, false
		}
		if t.fds >= k.fdLimEff {
			// Per-process descriptor table full: fail with the EMFILE
			// analogue instead of handing out an unbounded fd. The server
			// model backs off and retries the accept.
			k.FDRejects++
			return sys.ErrMfile, false
		}
		if ls.acceptLen() > 0 {
			sid := ls.popAccept()
			so := ns.socks[sid]
			so.owner = t.tid
			so.lastActive = ns.ticks
			ns.linkOwned(t, so)
			k.armIdle(so)
			t.fds++
			return sid, false
		}
		sleepOn(ls, t)
		return 0, true
	case sys.SysSelect:
		// Used non-blocking by the server model: report readiness.
		ls := ns.sock(ListenFD)
		if ls != nil && ls.acceptLen() > 0 {
			return 1, false
		}
		if req.Blocking {
			sleepOn(ls, t)
			return 0, true
		}
		return 0, false
	case sys.SysRead:
		if req.Resource == sys.ResNet {
			s := ns.sock(req.FD)
			if s == nil {
				return -1, false
			}
			if s.data > 0 || s.closed {
				n := s.data
				s.data = 0
				s.lastActive = ns.ticks
				return n, false
			}
			if !req.Blocking {
				return 0, false
			}
			sleepOn(s, t)
			return 0, true
		}
		return req.Bytes, false
	case sys.SysWrite, sys.SysWritev:
		if req.Resource == sys.ResNet {
			s := ns.sock(req.FD)
			if s != nil && ns.nic != nil {
				ns.nic.Transmit(Frame{Conn: s.conn, Bytes: req.Bytes}, ns.now)
			}
			if s != nil {
				s.lastActive = ns.ticks
				s.served = true
				s.reqBytes = 0
			}
		}
		return req.Bytes, false
	case sys.SysClose:
		if req.Resource == sys.ResNet {
			s := ns.sock(req.FD)
			if s != nil && !s.listen && !s.free {
				s.closed = true
				ns.byConn.Delete(s.conn)
				if ns.nic != nil {
					ns.nic.Transmit(Frame{Conn: s.conn, Close: true}, ns.now)
				}
				if s.owner == t.tid && t.fds > 0 {
					t.fds--
				}
				// The descriptor is gone: recycle the table slot so the
				// bounded socket pool drains as connections close.
				ns.freeSocket(s)
			}
		}
		return 0, false
	case sys.SysSmmap:
		// Mapping is lazy (first touch faults); nothing to do eagerly.
		return 0, false
	case sys.SysMunmap:
		// Unmap the page, with the TLB and cache invalidations the SMT
		// port performs in place of an SMP shootdown (§2.2.2).
		if req.Addr != 0 {
			if paddr, ok := k.Mem.Translate(t.pid, req.Addr); ok {
				base := paddr &^ uint64(mem.PageMask)
				k.hier.L1D.InvalidateRange(base, mem.PageSize)
			}
			k.Mem.Unmap(t.pid, req.Addr)
			k.dtlb.InvalidatePage(t.asn, req.Addr)
			k.itlb.InvalidatePage(t.asn, req.Addr)
		}
		return 0, false
	case sys.SysStat, sys.SysOpen, sys.SysIoctl, sys.SysGetpid, sys.SysSigaction:
		return 0, false
	case sys.SysFork:
		// Admission control: a fork that would overflow the process table
		// fails with EAGAIN instead of wedging the kernel. Callers retry.
		if !k.canFork() {
			k.ForkRejects++
			return sys.ErrAgain, false
		}
		return int(t.pid), false
	case sys.SysExec:
		return int(t.pid), false
	}
	return 0, false
}
