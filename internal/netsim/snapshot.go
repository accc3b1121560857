// Checkpoint serialization for the network simulator and client fleet.
package netsim

import "repro/internal/checkpoint"

// Sync syncs the network's mutable state, on a network with the same
// client count when reading. The client fleet is synced column by column —
// one column per client field, its request record's included — so a
// 10^6-client fleet whose clients mostly sit idle costs a dense column for
// the fields every client sets and a few bytes for the rest. The files
// table is written connection-sorted so the section of a deterministic run
// is deterministic. The narrowed int32 fields zigzag the same as int, so
// their columns' bytes do not depend on the field width.
func (n *Network) Sync(c *checkpoint.Codec) {
	n.rng.Sync(c)
	cs := n.clients
	if !c.Expect(len(cs), "clients") {
		return
	}
	checkpoint.Zero(c, cs)
	// The request fields are columns of the fleet like the rest. Writing,
	// a client without a record reads the zero record. Reading, a column
	// sets only its nonzero values, and the client attaches a record for
	// the first of them; rebuild releases any left all zero.
	if c.Loading() {
		n.reqs = n.reqs[:1]
		n.reqFree = n.reqFree[:0]
	}
	rq := func(x *client) *request {
		if c.Loading() {
			return n.hold(x)
		}
		return n.reqOf(x)
	}
	checkpoint.Column(c, cs, func(x *client) *clientState { return &x.state })
	checkpoint.Column(c, cs, func(x *client) *clientKind { return &x.kind })
	checkpoint.Column(c, cs, func(x *client) *int { return &rq(x).conn })
	checkpoint.Column(c, cs, func(x *client) *uint64 { return &x.nextAt })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.got })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &x.want })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &rq(x).reqsLeft })
	checkpoint.BoolColumn(c, cs, func(x *client) *bool { return &rq(x).closing })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &rq(x).acks })
	checkpoint.Column(c, cs, func(x *client) *uint64 { return &rq(x).retryAt })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &rq(x).retries })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &rq(x).timeout })
	checkpoint.Column(c, cs, func(x *client) *int32 { return &rq(x).sendLeft })
	checkpoint.Column(c, cs, func(x *client) *uint64 { return &rq(x).sendAt })
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
	// nothing about the wheel, heap or index layouts).
	n.rebuild()
}
