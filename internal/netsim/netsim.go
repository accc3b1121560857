// Package netsim is the simulated network and SPECWeb96-like client driver
// of the paper's §2.3.
//
// The paper runs two separate SimOS instances, each executing a 64-client
// SPECWeb96 driver, connected to the Apache machine by a simulated
// direct network with no loss and no latency, advancing in lock-step at a
// 10 ms interrupt granularity. We reproduce the same structure with one
// difference documented in DESIGN.md: the client machines' *own* CPU
// execution is outside the measured system (the paper measures only the
// Apache machine), so clients here are request state machines rather than
// simulated CPUs. Packets still arrive only at tick boundaries, the server
// NIC interrupts on arrival, and the whole system is deterministic.
//
// The request mix follows SPECWeb96's four file classes (100 B–900 B,
// 1–9 KB, 10–90 KB, 100–900 KB with 35/50/14/1 percent weights).
//
// With a faults.Injector attached (SetFaults), the wire becomes lossy:
// frames may be dropped, corrupted, or delayed in either direction, and
// clients grow a TCP-like recovery layer — a retransmit timer with capped
// exponential backoff, a bounded retry budget after which the request is
// abandoned, and reconnect-on-reset when the server side dies mid-request.
// All fault sampling comes from the injector's own deterministic stream;
// with no injector (the default) none of these paths execute and behavior
// is bit-identical to the fault-free driver.
//
// The injector's overload domain additionally reshapes the client
// population itself (see FAULTS.md "Overload"): slow-trickle senders that
// open with a bare SYN and dribble the request in chunks, keep-alive storm
// clients that hold connections across long think times, and a dormant
// flash-crowd pool that activates in bursts. With overload on, every
// completed request's end-to-end latency (issue tick to last response
// byte) is recorded in a deterministic fixed-bucket histogram.
//
// # Event-driven driver
//
// The fleet is driven by a hierarchical timer wheel rather than a per-tick
// scan, so a tick costs O(due clients + arrivals) instead of O(fleet): a
// million think-time/dormant clients cost nothing until a timer fires. Every
// client condition the old scan polled (ack flush, trickle sendAt, retryAt,
// think-time nextAt) is folded into one earliest-need deadline per client
// (scheduleNeeds), which the wheel holds: one deadline per client, moved
// when an earlier need appears. Due clients are processed in
// ascending index order — exactly the old scan order — and a spuriously
// woken client takes no action and consumes no randomness, so the frame
// stream and RNG stream are bit-identical to the reference full-scan driver
// (reference.go keeps that driver alive behind a test hook, and
// equivalence_test.go pins byte-identity). The dormant flash-crowd pool is a
// binary min-heap of client indexes popped in ascending order — the same
// order the scan found them. The conn→file-size and conn→client demux
// tables are flat free-listed hash tables (internal/flatmap), not Go maps,
// sized by the connections in use rather than by the fleet.
//
// # Host state per client
//
// A client keeps a 32-byte record for life (client) and 16 bytes in the
// wheel. The fields of an open request (its connection, acks, retransmit
// and trickle state) live in a request record from a free-listed table,
// which a client holds only while one of them is nonzero: a few hundred
// records in a 10^6-client fleet whose clients mostly think.
package netsim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/faults"
	"repro/internal/flatmap"
	"repro/internal/kernel"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/timerwheel"
)

// Config parameterizes the client driver.
type Config struct {
	// Clients is the number of SPECWeb clients (the paper: two drivers of
	// 64 each = 128).
	Clients int
	// Seed drives file-size and think-time sampling.
	Seed uint64
	// RequestBytes is the HTTP request size.
	RequestBytes int
	// ThinkTicks is the delay, in 10 ms ticks, between a completed
	// response and the client's next request (0 saturates the server).
	ThinkTicks int
	// RequestsPerConn is the number of requests issued per connection
	// (1 = SPECWeb96/HTTP-1.0 behavior; >1 models HTTP/1.1 keep-alive).
	RequestsPerConn int
	// BurstPool is the number of extra dormant flash-crowd clients beyond
	// Clients; they activate in waves under the fault injector's
	// BurstEvery/BurstSize overload config and are inert otherwise.
	BurstPool int
	// StaggerTicks spreads the fleet's first requests over this many ticks
	// (client i starts at tick i%StaggerTicks) instead of issuing them all
	// at tick 1. 0 — the paper configuration — keeps the synchronized
	// start. Million-client sweeps set it to keep the per-tick arrival
	// wave bounded.
	StaggerTicks int
	// MeasureLatency records end-to-end request latency into Latency even
	// without the overload fault domain (which always records it).
	MeasureLatency bool
}

// Validate rejects a configuration whose values do not fit the client
// record: the request size and per-connection request count seed int32
// fields, and client indexes are int32.
func (c Config) Validate() error {
	for _, f := range [...]struct {
		name string
		v    int
	}{
		{"RequestBytes", c.RequestBytes},
		{"RequestsPerConn", c.RequestsPerConn},
		{"Clients+BurstPool", c.Clients + c.BurstPool},
	} {
		if f.v > math.MaxInt32 {
			return fmt.Errorf("netsim: %s %d exceeds %d", f.name, f.v, math.MaxInt32)
		}
	}
	return nil
}

// DefaultConfig returns the paper's client setup.
func DefaultConfig() Config {
	return Config{Clients: 128, Seed: 99, RequestBytes: 300, ThinkTicks: 0}
}

type clientState uint8

const (
	csIdle clientState = iota
	csWaiting
)

// Client kinds under the overload fault domain. Kinds other than ckNormal
// change behavior only while overload config is enabled.
type clientKind uint8

const (
	ckNormal clientKind = iota
	ckSlow              // slowloris: bare SYN, then request chunks every TrickleTicks
	ckStorm             // keep-alive storm: holds the connection across StormHoldTicks
	ckBurst             // flash crowd: dormant until a burst wave activates it
)

// dormantTick is the nextAt sentinel that parks a burst client until a
// wave activates it.
const dormantTick = ^uint64(0)

// fileClassWeights is the SPECWeb96 class mix (35/50/14/1).
var fileClassWeights = []float64{35, 50, 14, 1}

// client is one SPECWeb client's hot record: what every client keeps for
// life. A 10^6-client fleet keeps a million of these live, so the record
// holds only the think timer, state and kind, and the three fields that a
// completed request leaves behind (at most 32 bytes, TestClientSize). Byte
// counts are narrowed to int32: file sizes are at most 900,000 bytes by
// construction (sampleFile). Everything else about a request is in the
// client's request record, if it holds one.
type client struct {
	nextAt uint64 // tick index when the next request may start
	// startTick is the tick the latest request was issued, for end-to-end
	// latency measurement.
	startTick uint64
	got       int32
	want      int32
	// req indexes the client's request record in Network.reqs; 0 is the
	// zero record, which stands for every client that holds none.
	req   int32
	state clientState
	kind  clientKind
}

// request is the in-flight part of a client's state. A client holds one
// from the moment one of these fields becomes nonzero until all of them
// are zero again (scheduleNeeds releases it). Config.Validate and
// faults.Config.Validate bound the request size, per-connection request
// count and retry timeouts that seed the int32 fields.
type request struct {
	conn int
	// retryAt is the tick the retransmit timer fires (0 = unarmed; armed
	// only under fault injection). While sendLeft > 0 it is armed but held
	// off — the client is still "typing".
	retryAt uint64
	sendAt  uint64
	// reqsLeft counts further requests to issue on the current
	// connection before closing it (keep-alive).
	reqsLeft int32
	// acks counts acknowledgment frames owed to the server for received
	// response segments (sent at the next tick, like a real TCP peer).
	acks int32
	// retries counts retransmits of the current request.
	retries int32
	// timeout is the current backoff interval in ticks.
	timeout int32
	// sendLeft is the unsent remainder of a slow client's request; while
	// nonzero the retransmit timer is held off and a chunk goes out every
	// time sendAt passes.
	sendLeft int32
	// closing marks a connection whose FIN is owed to the server.
	closing bool
}

// delayedFrame is a frame held in transit by the fault injector.
type delayedFrame struct {
	due uint64
	fr  kernel.Frame
}

// Network implements kernel.NIC: the client fleet plus the wire (lossless
// and zero-latency by default; lossy under fault injection).
type Network struct {
	cfg     Config //detlint:ignore snapshotcomplete configuration fixed at construction
	rng     *rng.Rand
	clients []client
	// reqs is the request-record table; reqs[0] is the zero record and is
	// never written. Released records go on reqFree, a LIFO free list as
	// in flatmap, and are reused first, so which record a client gets is
	// deterministic. The table is as long as the most requests ever open
	// at once, and a restore reuses it.
	reqs    []request //detlint:ignore snapshotcomplete synced as the request-field columns of the fleet; a load empties it first
	reqFree []int32   //detlint:ignore snapshotcomplete derived: the records are rebuilt from the columns on restore
	ticks   uint64    //detlint:ignore counterflow tick clock for timers and latency stamps, not a metric
	nextID  int
	// files maps conn → requested file size (flat free-listed table; its
	// contents are serialized sorted by conn, as the map predecessor was).
	// It and connClient start empty and grow with open connections.
	files *flatmap.IntMap

	// wheel holds each client's earliest need, if it has one.
	wheel *timerwheel.Wheel //detlint:ignore snapshotcomplete derived: rebuilt by canonical re-arm from client deadlines on restore
	// held is rebuild's scratch of the clients holding a connection.
	held []int32 //detlint:ignore snapshotcomplete restore scratch, empty between calls
	// sortBuf is the scratch of sortIndexes in Tick.
	sortBuf []int32 //detlint:ignore snapshotcomplete per-tick scratch, dead between ticks
	// dormant is a binary min-heap of dormant flash-crowd client indexes;
	// ascending pops reproduce the reference scan's wake order.
	dormant []int32 //detlint:ignore snapshotcomplete derived: rebuilt from client kind/nextAt on restore
	// connClient maps conn → owning client index while a client holds the
	// conn (waiting or idle keep-alive).
	connClient *flatmap.IntMap //detlint:ignore snapshotcomplete derived index: rebuilt from client conns on restore
	// waiting counts clients in csWaiting (the Outstanding gauge).
	waiting int //detlint:ignore snapshotcomplete derived gauge: recounted from client states on restore
	// outBuf is the arrival batch returned by Tick; the kernel copies it
	// out before the next tick.
	outBuf []kernel.Frame //detlint:ignore snapshotcomplete per-tick scratch, consumed by the kernel within the tick
	// inPre is true during Tick's pre-phase (delayed-frame release, burst
	// waves), where new deadlines may still land on the current tick.
	inPre bool //detlint:ignore snapshotcomplete transient Tick-phase flag, false between ticks
	// refScan selects the reference full-scan driver (test hook, see
	// reference.go).
	refScan bool //detlint:ignore snapshotcomplete test-hook driver selection, not simulation state

	// inj is the fault injector (nil = perfect wire).
	inj *faults.Injector //detlint:ignore snapshotcomplete fault wiring re-attached by core assembly on restore
	// delayedIn holds client→server frames in transit; delayedOut holds
	// server→client frames in transit.
	delayedIn  []delayedFrame
	delayedOut []delayedFrame

	// Requests counts requests issued; Completed counts responses fully
	// received; BytesServed sums response payloads.
	Requests    uint64
	Completed   uint64
	BytesServed uint64
	// PerClass counts completed requests per SPECWeb file class.
	PerClass [4]uint64
	// Retransmits counts timer-driven request retransmissions; Aborted
	// counts requests abandoned after the retry budget; Resets counts
	// connections torn down by the server mid-request (worker crash)
	// that the client answered with a fresh connection.
	Retransmits uint64
	Aborted     uint64
	Resets      uint64
	// Latency is the end-to-end request latency histogram in network
	// ticks, populated while the overload fault domain is enabled or
	// Config.MeasureLatency is set.
	Latency stats.Hist
}

// New builds the client fleet (plus the dormant flash-crowd pool). It
// panics on a configuration Validate rejects.
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 128
	}
	if cfg.RequestBytes <= 0 {
		cfg.RequestBytes = 300
	}
	fleet := cfg.Clients + cfg.BurstPool
	n := &Network{
		cfg:        cfg,
		rng:        rng.New(cfg.Seed ^ 0x5ec1e75),
		clients:    make([]client, fleet),
		reqs:       make([]request, 1),
		nextID:     1,
		files:      flatmap.New(0),
		connClient: flatmap.New(0),
		wheel:      timerwheel.New(0, fleet),
		refScan:    defaultRefScan,
	}
	if cfg.StaggerTicks > 0 {
		for i := 0; i < cfg.Clients; i++ {
			n.clients[i].nextAt = uint64(i % cfg.StaggerTicks)
		}
	}
	for i := cfg.Clients; i < len(n.clients); i++ {
		n.clients[i].kind = ckBurst
		n.clients[i].nextAt = dormantTick
	}
	n.rebuild()
	return n
}

// SetFaults attaches a fault injector to the wire (nil detaches). With the
// overload domain enabled, the base client population is classified here —
// one draw per client from the injector's overload stream — so the same
// seed always misbehaves the same clients.
func (n *Network) SetFaults(inj *faults.Injector) {
	n.inj = inj
	if inj == nil || !inj.Cfg.OverloadEnabled() {
		return
	}
	for i := 0; i < n.cfg.Clients && i < len(n.clients); i++ {
		c := &n.clients[i]
		switch {
		case inj.SlowClient():
			c.kind = ckSlow
		case inj.StormClient():
			c.kind = ckStorm
		default:
			c.kind = ckNormal
		}
	}
}

// faultsOn reports whether the lossy-wire and client-retry machinery is
// active.
func (n *Network) faultsOn() bool { return n.inj != nil && n.inj.Cfg.Enabled() }

// overloadOn reports whether the overload client behaviors are active.
func (n *Network) overloadOn() bool { return n.inj != nil && n.inj.Cfg.OverloadEnabled() }

// classOf returns the SPECWeb class index of a file size.
func classOf(bytes int) int {
	switch {
	case bytes < 1000:
		return 0
	case bytes < 10_000:
		return 1
	case bytes < 100_000:
		return 2
	default:
		return 3
	}
}

// sampleFile draws a file size from the SPECWeb96 mix: at most 900,000
// bytes (class 3, multiplier 9), so a byte count fits a client's int32.
func (n *Network) sampleFile() int {
	cls := n.rng.Choose(fileClassWeights)
	mult := 1 + n.rng.Intn(9) // 1..9
	base := 100
	for i := 0; i < cls; i++ {
		base *= 10
	}
	return base * mult
}

// earliest returns the smaller of two deadlines, treating 0 as "none".
func earliest(a, b uint64) uint64 {
	if a == 0 || b < a {
		return b
	}
	return a
}

// later returns the larger of two ticks.
func later(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// reqOf returns c's request record for reading: the zero record if c
// holds none. Writing a nonzero value needs hold.
func (n *Network) reqOf(c *client) *request { return &n.reqs[c.req] }

// hold returns c's request record for writing, attaching a free one if c
// holds none. Attaching may move the table: a record pointer taken before
// is stale after it.
func (n *Network) hold(c *client) *request {
	if c.req == 0 {
		if k := len(n.reqFree); k > 0 {
			c.req = n.reqFree[k-1]
			n.reqFree = n.reqFree[:k-1]
		} else {
			c.req = int32(len(n.reqs))
			n.reqs = append(n.reqs, request{})
		}
	}
	return &n.reqs[c.req]
}

// scheduleNeeds releases c's request record if all its fields are zero
// again, then folds every condition the reference scan polled into one
// earliest-need deadline and moves the client's wheel entry to it if that
// is earlier than the entry. It is called after every mutation that can
// create or advance a need: the end of each step, each server delivery,
// burst activation, construction, and restore. Deadlines are clamped to
// the next serviceable tick — the current tick during Tick's pre-phase
// (the scan would still visit the client this tick), the next tick
// otherwise.
func (n *Network) scheduleNeeds(i int32) {
	c := &n.clients[i]
	r := n.reqOf(c)
	if c.req != 0 && *r == (request{}) {
		n.reqFree = append(n.reqFree, c.req)
		c.req = 0
	}
	lo := n.ticks + 1
	if n.inPre {
		lo = n.ticks
	}
	d := uint64(0)
	if r.acks > 0 {
		d = lo
	}
	if c.state == csWaiting {
		if r.sendLeft > 0 {
			// Trickle chunk; the retransmit timer is held off meanwhile.
			d = earliest(d, later(r.sendAt, lo))
		} else if r.retryAt != 0 {
			d = earliest(d, later(r.retryAt, lo))
		}
	} else if c.nextAt != dormantTick {
		d = earliest(d, later(c.nextAt, lo))
	}
	if d == 0 {
		return
	}
	if due := n.wheel.Due(i); due != 0 && due <= d {
		return // an earlier entry already covers it
	}
	n.wheel.Schedule(d, i)
}

// rebuild derives the scheduling and demux state from the client records
// in one pass over the fleet (construction and restore): it re-arms every
// client canonically, refills the dormant heap (ascending index pushes
// build a valid heap directly), recounts the waiting gauge, and sizes the
// demux table to the clients holding a connection, a few hundred in a
// 10^6-client fleet.
func (n *Network) rebuild() {
	n.wheel.Reset(n.ticks)
	n.dormant = n.dormant[:0]
	n.waiting = 0
	held := n.held[:0]
	for i := range n.clients {
		c := &n.clients[i]
		if c.state == csWaiting {
			n.waiting++
		}
		if c.kind == ckBurst && c.state == csIdle && c.nextAt == dormantTick {
			n.pushDormant(int32(i))
		}
		n.scheduleNeeds(int32(i))
		if n.reqOf(c).conn != 0 {
			held = append(held, int32(i))
		}
	}
	n.connClient.Reset(len(held))
	for _, i := range held {
		n.connClient.Put(n.reqOf(&n.clients[i]).conn, int(i))
	}
	n.held = held[:0]
}

// pushDormant parks a flash-crowd client index on the dormant min-heap.
func (n *Network) pushDormant(i int32) {
	n.dormant = append(n.dormant, i)
	j := len(n.dormant) - 1
	for j > 0 {
		p := (j - 1) / 2
		if n.dormant[p] <= n.dormant[j] {
			break
		}
		n.dormant[p], n.dormant[j] = n.dormant[j], n.dormant[p]
		j = p
	}
}

// popDormant removes and returns the smallest dormant client index — the
// one the reference scan's wave would have found first.
func (n *Network) popDormant() int32 {
	h := n.dormant
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	n.dormant = h[:last]
	h = n.dormant
	j := 0
	for {
		l, r := 2*j+1, 2*j+2
		s := j
		if l < len(h) && h[l] < h[s] {
			s = l
		}
		if r < len(h) && h[r] < h[s] {
			s = r
		}
		if s == j {
			break
		}
		h[j], h[s] = h[s], h[j]
		j = s
	}
	return top
}

// bindConn attaches a fresh connection to client i and points the
// conn→client index at it.
func (n *Network) bindConn(r *request, i int32, conn int) {
	r.conn = conn
	n.connClient.Put(conn, int(i))
}

// unbindConn releases a client's conn and its demux entry.
func (n *Network) unbindConn(r *request) {
	if r.conn != 0 {
		n.connClient.Delete(r.conn)
		r.conn = 0
	}
}

// sendToServer routes a client→server frame through the (possibly lossy)
// wire into the tick's arrival batch.
func (n *Network) sendToServer(fr kernel.Frame) {
	if !n.faultsOn() {
		n.outBuf = append(n.outBuf, fr)
		return
	}
	if n.inj.DropFrame() {
		n.inj.DroppedToServer++
		return
	}
	if n.inj.CorruptFrame() {
		fr.Corrupt = true
	}
	if d := n.inj.DelayTicks(); d > 0 {
		n.delayedIn = append(n.delayedIn, delayedFrame{due: n.ticks + uint64(d), fr: fr})
		return
	}
	n.outBuf = append(n.outBuf, fr)
}

// releaseDueIn moves client→server frames whose transit delay expired into
// the arrival batch.
func (n *Network) releaseDueIn() {
	kept := n.delayedIn[:0]
	for _, d := range n.delayedIn {
		if d.due <= n.ticks {
			n.outBuf = append(n.outBuf, d.fr)
		} else {
			kept = append(kept, d)
		}
	}
	n.delayedIn = kept
}

// releaseDueOut delivers server→client frames whose transit delay expired.
func (n *Network) releaseDueOut() {
	kept := n.delayedOut[:0]
	for _, d := range n.delayedOut {
		if d.due <= n.ticks {
			n.deliverToClient(d.fr)
		} else {
			kept = append(kept, d)
		}
	}
	n.delayedOut = kept
}

// armRetry starts (or restarts) a client's retransmit timer; no-op unless
// fault injection is on.
func (n *Network) armRetry(r *request, fresh bool) {
	if !n.faultsOn() {
		return
	}
	if fresh {
		r.retries = 0
		r.timeout = int32(n.inj.Cfg.RetryTimeoutTicks)
	}
	r.retryAt = n.ticks + uint64(r.timeout)
}

// disarmRetry clears the retransmit state after a request resolves.
func (r *request) disarmRetry() {
	r.retryAt = 0
	r.retries = 0
	r.timeout = 0
}

// retryExpired handles a fired retransmit timer: resend the request under
// exponential backoff, or abandon it once the retry budget is spent.
func (n *Network) retryExpired(c *client, r *request, i int32) {
	if int(r.retries) >= n.inj.Cfg.MaxRetries {
		// Give up: drop the connection (best-effort FIN so the server can
		// reap the socket) and return to idle for a fresh request.
		n.Aborted++
		n.sendToServer(kernel.Frame{Conn: r.conn, Close: true})
		n.resetClient(c, r, i)
		return
	}
	r.retries++
	n.Retransmits++
	// Doubled in int: the cap, not the doubling, must fit int32.
	r.timeout = int32(min(2*int(r.timeout), n.inj.Cfg.BackoffCapTicks))
	r.retryAt = n.ticks + uint64(r.timeout)
	// The retransmit carries Open so a lost SYN is recovered too; the
	// kernel treats a duplicate open on an established connection as data.
	n.sendToServer(kernel.Frame{Conn: r.conn, Bytes: n.cfg.RequestBytes, Open: true})
}

// resetClient abandons the in-flight request and frees the client to start
// over on a fresh connection.
func (n *Network) resetClient(c *client, r *request, i int32) {
	n.files.Delete(r.conn)
	n.unbindConn(r)
	if c.state == csWaiting {
		n.waiting--
	}
	c.state = csIdle
	r.reqsLeft = 0
	r.closing = false
	r.disarmRetry()
	r.sendLeft = 0
	r.sendAt = 0
	c.nextAt = n.ticks + 1 + uint64(n.cfg.ThinkTicks)
	if c.kind == ckBurst && n.overloadOn() {
		// A flash-crowd client that gave up goes back to the dormant pool.
		c.nextAt = dormantTick
		n.pushDormant(i)
	}
}

// Tick implements kernel.NIC: advance one 10 ms step and return the frames
// arriving at the server. The returned slice is reused next tick; the
// kernel copies it out within the cycle.
//
//detlint:hot per-tick client driver; O(active + arrivals), not O(clients)
func (n *Network) Tick(now uint64) []kernel.Frame {
	n.ticks++
	n.outBuf = n.outBuf[:0]
	n.inPre = true
	if n.faultsOn() {
		// Deliver frames whose transit delay expired.
		n.releaseDueIn()
		n.releaseDueOut()
	}
	if n.overloadOn() {
		if be := n.inj.Cfg.BurstEvery; be > 0 && n.ticks%uint64(be) == 0 {
			// Flash-crowd wave: wake up to BurstSize dormant clients, in
			// ascending index order like the reference scan.
			room := n.inj.Cfg.BurstSize
			for room > 0 && len(n.dormant) > 0 {
				i := n.popDormant()
				n.clients[i].nextAt = n.ticks
				n.scheduleNeeds(i)
				room--
			}
		}
	}
	n.inPre = false
	due := n.wheel.Advance(n.ticks)
	if n.refScan {
		// Reference full-scan driver (test hook): visit every client. The
		// wheel still advances, so the two drivers stay interchangeable
		// mid-run.
		for i := range n.clients {
			n.stepClient(int32(i))
		}
		return n.outBuf
	}
	// The wheel fires in slot order; the reference scan ran in client
	// order. Sorting restores the canonical order (and RNG draw order).
	sortIndexes(due, int32(len(n.clients)-1), &n.sortBuf)
	for _, i := range due {
		n.stepClient(i)
	}
	return n.outBuf
}

// maxRadixBits caps sortIndexes' digit width, which keeps its count
// array at 8 KiB on the stack.
const maxRadixBits = 11

// sortIndexes sorts indexes, all at most max, ascending, with *scratch as
// its buffer: a least-significant-digit radix sort whose digit is as wide
// as the batch's bit length (at most maxRadixBits), so a pass costs about
// as much in buckets as in indexes. Measured fired batches per tick (seed
// 1): simbench apache-fleet (10^6 clients, sampled) fires 32-127 clients
// on each of its 258 ticks in a 12 s run, where this costs about 1 µs a
// tick more than slices.Sort (1.6 against 0.6-0.9 µs at 64), well under
// 0.1 ms per op; BenchmarkNetTick1M fires 1024-2047 on 2102 of its first
// 2112 ticks, where the two 11-bit passes cost about a third of
// slices.Sort (9.5 against 26 µs at 1536; BenchmarkSortIndexes).
func sortIndexes(ids []int32, max int32, scratch *[]int32) {
	if len(ids) < 2 {
		return
	}
	w := min(bits.Len(uint(len(ids))), maxRadixBits)
	mask := int32(1)<<w - 1
	buf := (*scratch)[:0]
	for cap(buf) < len(ids) {
		buf = append(buf[:cap(buf)], 0)
	}
	buf = buf[:len(ids)]
	*scratch = buf
	var counts [1 << maxRadixBits]int32
	count := counts[:1<<w]
	src, dst := ids, buf
	for shift := 0; max>>shift != 0; shift += w {
		clear(count)
		for _, v := range src {
			count[v>>shift&mask]++
		}
		sum := int32(0)
		for d, k := range count {
			count[d] = sum
			sum += k
		}
		for _, v := range src {
			d := v >> shift & mask
			dst[count[d]] = v
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// stepClient services one client — the loop body of the reference scan —
// then re-arms its wheel entry for the earliest remaining need. Stepping a
// client none of whose conditions hold is a no-op that consumes no
// randomness, which is what makes spurious wake-ups harmless.
func (n *Network) stepClient(i int32) {
	n.stepBody(i)
	n.scheduleNeeds(i)
}

func (n *Network) stepBody(i int32) {
	c := &n.clients[i]
	r := n.reqOf(c)
	// Flush pending TCP acknowledgments for in-flight transfers.
	for r.acks > 0 {
		r.acks--
		n.sendToServer(kernel.Frame{Conn: r.conn, Ack: true})
	}
	if c.state == csWaiting && r.sendLeft > 0 && n.ticks >= r.sendAt {
		// Slow trickle: the next request chunk.
		chunk := int32(max(n.cfg.RequestBytes/4, 1))
		if chunk > r.sendLeft {
			chunk = r.sendLeft
		}
		r.sendLeft -= chunk
		n.sendToServer(kernel.Frame{Conn: r.conn, Bytes: int(chunk)})
		if r.sendLeft == 0 {
			// Request fully sent; only now does the ordinary
			// retransmit timer take over.
			n.armRetry(r, true)
		} else {
			r.sendAt = n.ticks + uint64(n.inj.Cfg.TrickleTicks)
		}
	}
	if c.state == csWaiting && r.sendLeft == 0 && r.retryAt != 0 && n.ticks >= r.retryAt {
		n.retryExpired(c, r, i)
	}
	if c.state != csIdle || c.nextAt > n.ticks {
		return
	}
	if r.closing {
		// Tear down the kept-alive connection before the next one.
		r.closing = false
		n.sendToServer(kernel.Frame{Conn: r.conn, Close: true})
		n.unbindConn(r)
	}
	size := n.sampleFile()
	c.got = 0
	c.want = int32(size)
	c.state = csWaiting
	n.waiting++
	c.startTick = n.ticks
	n.Requests++
	if r.conn != 0 {
		// Keep-alive: next request travels on the open connection.
		n.files.Put(r.conn, size)
		n.sendToServer(kernel.Frame{Conn: r.conn, Bytes: n.cfg.RequestBytes})
		n.armRetry(r, true)
		return
	}
	conn := n.nextID
	n.nextID++
	n.files.Put(conn, size)
	r = n.hold(c)
	n.bindConn(r, i, conn)
	r.reqsLeft = int32(n.cfg.RequestsPerConn - 1)
	if r.reqsLeft < 0 || (c.kind == ckBurst && n.overloadOn()) {
		// Flash-crowd arrivals are one-shot connections.
		r.reqsLeft = 0
	}
	if c.kind == ckSlow && n.overloadOn() {
		// Slowloris: a bare SYN now, the request body in trickled
		// chunks. The worker that accepts blocks in read meanwhile.
		r.sendLeft = int32(n.cfg.RequestBytes)
		r.sendAt = n.ticks + uint64(n.inj.Cfg.TrickleTicks)
		n.sendToServer(kernel.Frame{Conn: conn, Open: true})
	} else {
		n.sendToServer(kernel.Frame{Conn: conn, Bytes: n.cfg.RequestBytes, Open: true})
	}
	n.armRetry(r, true)
}

// Transmit implements kernel.NIC: the server sent a frame toward a client.
//
//detlint:hot per-response-segment server→client path
func (n *Network) Transmit(fr kernel.Frame, now uint64) {
	if n.faultsOn() {
		if n.inj.DropFrame() {
			n.inj.DroppedToClient++
			return
		}
		if n.inj.CorruptFrame() {
			// Damaged segment: the client discards it (no ack, no data);
			// the retransmit timer recovers the payload.
			return
		}
		if d := n.inj.DelayTicks(); d > 0 {
			n.delayedOut = append(n.delayedOut, delayedFrame{due: n.ticks + uint64(d), fr: fr})
			return
		}
	}
	n.deliverToClient(fr)
}

// deliverToClient lands a server frame at the owning client via the
// conn→client demux table (the reference driver scanned the fleet twice:
// once for a waiting owner, once for an idle keep-alive holder — conn ids
// are unique, so one lookup answers both).
//
//detlint:hot per-frame demux into the client fleet
func (n *Network) deliverToClient(fr kernel.Frame) {
	idx, ok := n.connClient.Get(fr.Conn)
	if !ok {
		return
	}
	i := int32(idx)
	c := &n.clients[i]
	// A client holding a conn holds its request record.
	r := n.reqOf(c)
	if c.state == csWaiting {
		if fr.Close {
			if n.faultsOn() && c.got < c.want {
				// Connection torn down mid-response (worker crash / kernel
				// reaping an orphaned socket): treat as a reset and start
				// over on a fresh connection.
				n.Resets++
				n.resetClient(c, r, i)
			} else {
				n.finish(c, r, i)
			}
			n.scheduleNeeds(i)
			return
		}
		c.got += int32(fr.Bytes)
		n.BytesServed += uint64(fr.Bytes)
		// One acknowledgment per response segment.
		r.acks++
		if c.got >= c.want {
			n.finish(c, r, i)
		}
		n.scheduleNeeds(i)
		return
	}
	// No waiting client owns the conn. A server-side close (idle reaping,
	// a crashed worker's cleanup) can land on a connection an idle client
	// is holding between keep-alive requests; release it so the client's
	// next request opens fresh. Never taken on a perfect wire: without
	// faults the server only closes connections the client already let
	// go of.
	if fr.Close {
		n.files.Delete(r.conn)
		n.unbindConn(r)
		r.closing = false
		n.scheduleNeeds(i)
	}
}

func (n *Network) finish(c *client, r *request, i int32) {
	n.Completed++
	n.PerClass[classOf(int(c.want))]++
	if n.overloadOn() || n.cfg.MeasureLatency {
		n.Latency.Observe(n.ticks - c.startTick)
	}
	n.files.Delete(r.conn)
	c.state = csIdle
	n.waiting--
	c.nextAt = n.ticks + 1 + uint64(n.cfg.ThinkTicks)
	r.disarmRetry()
	r.sendLeft = 0
	r.sendAt = 0
	if n.overloadOn() {
		switch c.kind {
		case ckBurst:
			// Flash-crowd client: one request, then back to the dormant
			// pool. The connection is abandoned without a FIN; the
			// server side closes it (or the idle reaper does).
			n.unbindConn(r)
			c.nextAt = dormantTick
			n.pushDormant(i)
			return
		case ckStorm:
			// Keep-alive storm: hold the connection open across a long
			// think time, pinning the worker in its blocked read. Only a
			// server-side close (the idle reaper) ends it.
			c.nextAt = n.ticks + 1 + uint64(n.inj.Cfg.StormHoldTicks)
			if r.reqsLeft > 0 {
				r.reqsLeft--
			}
			return
		}
	}
	if r.reqsLeft > 0 {
		// Connection stays open for the next request.
		r.reqsLeft--
		return
	}
	if n.cfg.RequestsPerConn > 1 {
		// Client-initiated close (the server waits in read for either the
		// next request or the FIN).
		r.closing = true
		return
	}
	n.unbindConn(r)
}

// FileSize returns the file size requested on a connection (0 if unknown);
// the Apache model uses it to drive stat/read/mmap behavior.
func (n *Network) FileSize(conn int) int {
	v, _ := n.files.Get(conn)
	return v
}

// Outstanding returns the number of clients with a request in flight.
func (n *Network) Outstanding() int { return n.waiting }
