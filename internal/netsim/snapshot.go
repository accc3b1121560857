// Checkpoint serialization for the network simulator and client fleet.
package netsim

import (
	"sort"

	"repro/internal/checkpoint"
)

// Save writes the network's mutable state. The client fleet is written
// column by column — one column per client field — so a 10^6-client fleet
// whose clients mostly sit idle costs a dense column for the fields every
// client sets and a few bytes for the rest. The files table is written
// connection-sorted so the section of a deterministic run is deterministic.
func (n *Network) Save(e *checkpoint.Enc) {
	n.rng.Save(e)
	cs := n.clients
	e.Uint(uint64(len(cs)))
	e.Column(len(cs), func(i int) uint64 { return uint64(cs[i].state) })
	e.Column(len(cs), func(i int) uint64 { return uint64(cs[i].kind) })
	e.IntColumn(len(cs), func(i int) int64 { return int64(cs[i].conn) })
	e.Column(len(cs), func(i int) uint64 { return cs[i].nextAt })
	e.IntColumn(len(cs), func(i int) int64 { return int64(cs[i].got) })
	e.IntColumn(len(cs), func(i int) int64 { return int64(cs[i].want) })
	e.IntColumn(len(cs), func(i int) int64 { return int64(cs[i].reqsLeft) })
	e.Column(len(cs), func(i int) uint64 {
		if cs[i].closing {
			return 1
		}
		return 0
	})
	e.IntColumn(len(cs), func(i int) int64 { return int64(cs[i].acks) })
	e.Column(len(cs), func(i int) uint64 { return cs[i].retryAt })
	e.IntColumn(len(cs), func(i int) int64 { return int64(cs[i].retries) })
	e.IntColumn(len(cs), func(i int) int64 { return int64(cs[i].timeout) })
	e.IntColumn(len(cs), func(i int) int64 { return int64(cs[i].sendLeft) })
	e.Column(len(cs), func(i int) uint64 { return cs[i].sendAt })
	e.Column(len(cs), func(i int) uint64 { return cs[i].startTick })
	e.Uint(n.ticks)
	e.Int(int64(n.nextID))
	type file struct{ conn, size int }
	files := make([]file, 0, n.files.Len())
	n.files.Range(func(conn, size int) { files = append(files, file{conn, size}) })
	sort.Slice(files, func(i, j int) bool { return files[i].conn < files[j].conn })
	e.Uint(uint64(len(files)))
	for _, f := range files {
		e.Int(int64(f.conn))
		e.Int(int64(f.size))
	}
	for _, q := range [...][]delayedFrame{n.delayedIn, n.delayedOut} {
		e.Uint(uint64(len(q)))
		for i := range q {
			e.Uint(q[i].due)
			q[i].fr.Save(e)
		}
	}
	for _, v := range [...]uint64{n.Requests, n.Completed, n.BytesServed, n.Retransmits, n.Aborted, n.Resets} {
		e.Uint(v)
	}
	checkpoint.PutUints(e, n.PerClass[:])
	n.Latency.Save(e)
}

// Load overwrites the network's state from a section written by Save on a
// network with the same client count. Clients are decoded field by field
// into the live fleet, and the derived scheduling and demux state is then
// rebuilt in place (checkpoint-by-derivation: the section knows nothing
// about the wheel, heap or index layouts).
func (n *Network) Load(d *checkpoint.Dec) {
	n.rng.Load(d)
	cs := n.clients
	if !d.Expect(len(cs), "clients") {
		return
	}
	clear(cs)
	d.Column(len(cs), func(i int, v uint64) { cs[i].state = clientState(v) })
	d.Column(len(cs), func(i int, v uint64) { cs[i].kind = clientKind(v) })
	d.IntColumn(len(cs), func(i int, v int64) { cs[i].conn = int(v) })
	d.Column(len(cs), func(i int, v uint64) { cs[i].nextAt = v })
	d.IntColumn(len(cs), func(i int, v int64) { cs[i].got = int(v) })
	d.IntColumn(len(cs), func(i int, v int64) { cs[i].want = int(v) })
	d.IntColumn(len(cs), func(i int, v int64) { cs[i].reqsLeft = int(v) })
	d.Column(len(cs), func(i int, v uint64) { cs[i].closing = v != 0 })
	d.IntColumn(len(cs), func(i int, v int64) { cs[i].acks = int(v) })
	d.Column(len(cs), func(i int, v uint64) { cs[i].retryAt = v })
	d.IntColumn(len(cs), func(i int, v int64) { cs[i].retries = int(v) })
	d.IntColumn(len(cs), func(i int, v int64) { cs[i].timeout = int(v) })
	d.IntColumn(len(cs), func(i int, v int64) { cs[i].sendLeft = int(v) })
	d.Column(len(cs), func(i int, v uint64) { cs[i].sendAt = v })
	d.Column(len(cs), func(i int, v uint64) { cs[i].startTick = v })
	n.ticks = d.Uint()
	n.nextID = int(d.Int())
	files := d.Len()
	n.files.Reset(files)
	for ; files > 0 && !d.Failed(); files-- {
		conn := int(d.Int())
		n.files.Put(conn, int(d.Int()))
	}
	for _, q := range [...]*[]delayedFrame{&n.delayedIn, &n.delayedOut} {
		*q = checkpoint.Resize(*q, d.Len())
		for i := range *q {
			f := &(*q)[i]
			f.due = d.Uint()
			f.fr.Load(d)
		}
	}
	for _, p := range [...]*uint64{&n.Requests, &n.Completed, &n.BytesServed, &n.Retransmits, &n.Aborted, &n.Resets} {
		*p = d.Uint()
	}
	checkpoint.LoadUints(d, n.PerClass[:], "per-class completions")
	n.Latency.Load(d)
	if d.Failed() {
		return
	}

	n.connClient.Reset(len(cs))
	n.waiting = 0
	for i := range cs {
		c := &cs[i]
		if c.conn != 0 {
			n.connClient.Put(c.conn, i)
		}
		if c.state == csWaiting {
			n.waiting++
		}
	}
	n.rearmAll()
	n.rebuildDormant()
}
