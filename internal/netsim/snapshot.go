// Checkpoint serialization for the network simulator and client fleet.
package netsim

import "repro/internal/checkpoint"

// Sync syncs the network's mutable state, on a network with the same
// client count when reading. The client fleet is synced column by column —
// one column per client field — so a 10^6-client fleet whose clients
// mostly sit idle costs a dense column for the fields every client sets
// and a few bytes for the rest. The files table is written
// connection-sorted so the section of a deterministic run is
// deterministic. The narrowed int32 fields zigzag the same as int, so their
// columns' bytes do not depend on the field width.
func (n *Network) Sync(c *checkpoint.Codec) {
	n.rng.Sync(c)
	cs := n.clients
	if !c.Expect(len(cs), "clients") {
		return
	}
	checkpoint.Zero(c, cs)
	checkpoint.Column(c, cs, func(x *client) *clientState { return &x.state })
	checkpoint.Column(c, cs, func(x *client) *clientKind { return &x.kind })
	checkpoint.Column(c, cs, func(x *client) *int { return &x.conn })
	checkpoint.Column(c, cs, func(x *client) *uint64 { return &x.nextAt })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.got })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.want })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.reqsLeft })
	checkpoint.BoolColumn(c, cs, func(x *client) *bool { return &x.closing })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.acks })
	checkpoint.Column(c, cs, func(x *client) *uint64 { return &x.retryAt })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.retries })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.timeout })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.sendLeft })
	checkpoint.Column(c, cs, func(x *client) *uint64 { return &x.sendAt })
	checkpoint.Column(c, cs, func(x *client) *uint64 { return &x.startTick })
	c.Uint(&n.ticks)
	checkpoint.I(c, &n.nextID)
	checkpoint.Table(c, n.files)
	for _, q := range [...]*[]delayedFrame{&n.delayedIn, &n.delayedOut} {
		checkpoint.Len(c, q, -1, "delayed frames")
		for i := range *q {
			f := &(*q)[i]
			c.Uint(&f.due)
			f.fr.Sync(c)
		}
	}
	for _, p := range [...]*uint64{&n.Requests, &n.Completed, &n.BytesServed, &n.Retransmits, &n.Aborted, &n.Resets} {
		c.Uint(p)
	}
	checkpoint.Array(c, n.PerClass[:], "per-class completions")
	n.Latency.Sync(c)
	if !c.Loading() || c.Failed() {
		return
	}
	// Derived state: the scheduling and demux state is rebuilt from the
	// loaded clients in place (checkpoint-by-derivation: the section knows
	// nothing about the wheel, heap or index layouts). The demux table is
	// sized to the clients holding a connection, a few hundred in a
	// 10^6-client fleet, gathered first into the (empty between ticks) due
	// scratch.
	held := n.due[:0]
	n.waiting = 0
	for i := range cs {
		cl := &cs[i]
		if cl.conn != 0 {
			held = append(held, int32(i))
		}
		if cl.state == csWaiting {
			n.waiting++
		}
	}
	n.connClient.Reset(len(held))
	for _, i := range held {
		n.connClient.Put(cs[i].conn, int(i))
	}
	n.due = held[:0]
	n.rearmAll()
	n.rebuildDormant()
}
