// Read-only accessors for the runtime invariant auditor (internal/audit):
// thread and socket inventories with no pointers into kernel internals.
package kernel

// ThreadInfo describes one thread for auditing.
type ThreadInfo struct {
	TID    uint32
	PID    uint64
	ASN    uint16
	Kind   string // "user", "netisr", "idle"
	Exited bool
	// Released is set once an exited thread's teardown (address-space
	// release, ASN invalidation) has retired; until then the thread
	// legitimately still owns pages and TLB entries.
	Released bool
	Worker   bool
	// FDs is the thread's open-descriptor count against the per-process
	// limit; Slot is its process-table slot (-1 for kernel threads and
	// torn-down processes).
	FDs  int
	Slot int
}

// ThreadInfos returns a summary of every registered thread.
func (k *Kernel) ThreadInfos() []ThreadInfo {
	out := make([]ThreadInfo, 0, len(k.threads))
	for _, t := range k.threads {
		kind := "user"
		switch t.kind {
		case tkNetisr:
			kind = "netisr"
		case tkIdle:
			kind = "idle"
		}
		out = append(out, ThreadInfo{
			TID: t.tid, PID: t.pid, ASN: t.asn, Kind: kind,
			Exited: t.state == tsExited, Released: t.released,
			Worker: t.worker, FDs: t.fds, Slot: t.slot,
		})
	}
	return out
}

// SocketInfo describes one kernel socket for auditing.
type SocketInfo struct {
	ID      int
	Listen  bool
	Conn    int
	Closed  bool
	Free    bool
	Owner   uint32
	Waiters int
	// AcceptQ is a copy of the live accept-queue window (listen sockets).
	AcceptQ []int
	// LastActive is the network tick of the socket's last activity.
	LastActive uint64
}

// SocketInfos returns a summary of every kernel socket.
func (k *Kernel) SocketInfos() []SocketInfo {
	out := make([]SocketInfo, 0, len(k.net.socks))
	for _, s := range k.net.socks {
		si := SocketInfo{
			ID: s.id, Listen: s.listen, Conn: s.conn,
			Closed: s.closed, Free: s.free, Owner: s.owner,
			Waiters: len(s.waiters), LastActive: s.lastActive,
		}
		if s.listen && s.acceptLen() > 0 {
			si.AcceptQ = append([]int(nil), s.acceptQ[s.acceptHead:]...)
		}
		out = append(out, si)
	}
	return out
}

// AcceptBacklogLimit returns the effective accept-queue bound (for audits).
func (k *Kernel) AcceptBacklogLimit() int { return k.backlogLimit() }

// NetTicks returns the number of elapsed 10 ms network ticks (for audits).
func (k *Kernel) NetTicks() uint64 { return k.net.ticks }

// SockFreeIDs returns a copy of the socket-table freelist (for audits).
func (k *Kernel) SockFreeIDs() []int { return append([]int(nil), k.net.sockFree...) }

// ProcTable returns a copy of the process-table slots plus the freelist
// length, for the resource-accounting audit.
func (k *Kernel) ProcTable() (slots []uint32, free int) {
	return append([]uint32(nil), k.procSlots...), len(k.procFree)
}

// LiveUserProcs returns the number of process-table slots in use.
func (k *Kernel) LiveUserProcs() int { return k.liveUsers }

// PoolSizes reports the configured (static) pool capacities, the hard upper
// bounds that hold regardless of squeezes: socket table, mbuf pool,
// per-process FD limit, process table.
func (k *Kernel) PoolSizes() (sock, mbuf, fd, proc int) {
	return k.cfg.SocketTableSize, k.cfg.MbufPoolSize, k.cfg.FDLimit, k.cfg.ProcTableSize
}
