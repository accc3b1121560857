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
// (scheduleNeeds) stamped on client.wakeAt; fired wheel entries that no
// longer match the stamp are stale and skipped. Due clients are processed in
// ascending index order — exactly the old scan order — and a spuriously
// woken client takes no action and consumes no randomness, so the frame
// stream and RNG stream are bit-identical to the reference full-scan driver
// (reference.go keeps that driver alive behind a test hook, and
// equivalence_test.go pins byte-identity). The dormant flash-crowd pool is a
// binary min-heap of client indexes popped in ascending order — the same
// order the scan found them. The conn→file-size and conn→client demux
// tables are flat free-listed hash tables (internal/flatmap), not Go maps,
// sized by the connections in use rather than by the fleet.
package netsim

import (
	"fmt"
	"math"
	"slices"

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

// client is one SPECWeb client's request state. A 10^6-client fleet keeps
// a million of these live, so the record is laid out widest first with
// byte counts and small counters narrowed to int32 (at most 80 bytes,
// TestClientSize): file sizes are at most 900,000 bytes by construction
// (sampleFile), and Config.Validate and faults.Config.Validate bound the
// request size, per-connection request count and retry timeouts that seed
// the rest.
type client struct {
	conn   int
	nextAt uint64 // tick index when the next request may start
	// retryAt is the tick the retransmit timer fires (0 = unarmed; armed
	// only under fault injection). While sendLeft > 0 it is armed but held
	// off — the client is still "typing".
	retryAt uint64
	sendAt  uint64
	// startTick is the tick the in-flight request was issued, for
	// end-to-end latency measurement.
	startTick uint64
	// wakeAt is the earliest tick any of this client's conditions needs
	// service, and the deadline of its live wheel entry (0 = no live
	// entry). A fired entry whose Due mismatches wakeAt is stale. Derived
	// scheduling state: rebuilt by canonical re-arm on restore, never
	// serialized.
	wakeAt uint64
	got    int32
	want   int32
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
	state    clientState
	kind     clientKind
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
	ticks   uint64 //detlint:ignore counterflow tick clock for timers and latency stamps, not a metric
	nextID  int
	// files maps conn → requested file size (flat free-listed table; its
	// contents are serialized sorted by conn, as the map predecessor was).
	// It and connClient start empty and grow with open connections.
	files *flatmap.IntMap

	// wheel holds one entry per armed client wake-up; client.wakeAt
	// distinguishes live entries from stale ones.
	wheel *timerwheel.Wheel //detlint:ignore snapshotcomplete derived: rebuilt by canonical re-arm from client deadlines on restore
	// due is the per-tick scratch list of woken client indexes, sorted
	// ascending to match the reference scan order.
	due []int32 //detlint:ignore snapshotcomplete per-tick scratch, empty between ticks
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
	n := &Network{
		cfg:        cfg,
		rng:        rng.New(cfg.Seed ^ 0x5ec1e75),
		clients:    make([]client, cfg.Clients+cfg.BurstPool),
		nextID:     1,
		files:      flatmap.New(0),
		connClient: flatmap.New(0),
		wheel:      timerwheel.New(0),
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
	n.rearmAll()
	n.rebuildDormant()
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

// scheduleNeeds folds every condition the reference scan polled into one
// earliest-need deadline and arms the wheel if that deadline is earlier
// than the client's live entry. It is called after every mutation that can
// create or advance a need: the end of each step, each server delivery,
// burst activation, construction, and restore. Deadlines are clamped to
// the next serviceable tick — the current tick during Tick's pre-phase
// (the scan would still visit the client this tick), the next tick
// otherwise.
func (n *Network) scheduleNeeds(i int32) {
	c := &n.clients[i]
	lo := n.ticks + 1
	if n.inPre {
		lo = n.ticks
	}
	d := uint64(0)
	if c.acks > 0 {
		d = lo
	}
	if c.state == csWaiting {
		if c.sendLeft > 0 {
			// Trickle chunk; the retransmit timer is held off meanwhile.
			d = earliest(d, later(c.sendAt, lo))
		} else if c.retryAt != 0 {
			d = earliest(d, later(c.retryAt, lo))
		}
	} else if c.nextAt != dormantTick {
		d = earliest(d, later(c.nextAt, lo))
	}
	if d == 0 || (c.wakeAt != 0 && c.wakeAt <= d) {
		return // no need, or an earlier live entry already covers it
	}
	c.wakeAt = d
	n.wheel.Schedule(d, i)
}

// rearmAll clears every wake stamp and canonically re-arms the whole fleet
// from client state (construction and restore).
func (n *Network) rearmAll() {
	for i := range n.clients {
		n.clients[i].wakeAt = 0
	}
	n.wheel.Reset(n.ticks)
	for i := range n.clients {
		n.scheduleNeeds(int32(i))
	}
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

// rebuildDormant reconstructs the dormant heap from client state
// (ascending index pushes build a valid heap directly).
func (n *Network) rebuildDormant() {
	n.dormant = n.dormant[:0]
	for i := range n.clients {
		c := &n.clients[i]
		if c.kind == ckBurst && c.state == csIdle && c.nextAt == dormantTick {
			n.pushDormant(int32(i))
		}
	}
}

// bindConn points the conn→client index at client i.
func (n *Network) bindConn(c *client, i int32, conn int) {
	c.conn = conn
	n.connClient.Put(conn, int(i))
}

// unbindConn releases a client's conn and its demux entry.
func (n *Network) unbindConn(c *client) {
	if c.conn != 0 {
		n.connClient.Delete(c.conn)
		c.conn = 0
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
func (n *Network) armRetry(c *client, fresh bool) {
	if !n.faultsOn() {
		return
	}
	if fresh {
		c.retries = 0
		c.timeout = int32(n.inj.Cfg.RetryTimeoutTicks)
	}
	c.retryAt = n.ticks + uint64(c.timeout)
}

// disarmRetry clears the retransmit state after a request resolves.
func (c *client) disarmRetry() {
	c.retryAt = 0
	c.retries = 0
	c.timeout = 0
}

// retryExpired handles a fired retransmit timer: resend the request under
// exponential backoff, or abandon it once the retry budget is spent.
func (n *Network) retryExpired(c *client, i int32) {
	if int(c.retries) >= n.inj.Cfg.MaxRetries {
		// Give up: drop the connection (best-effort FIN so the server can
		// reap the socket) and return to idle for a fresh request.
		n.Aborted++
		n.sendToServer(kernel.Frame{Conn: c.conn, Close: true})
		n.resetClient(c, i)
		return
	}
	c.retries++
	n.Retransmits++
	// Doubled in int: the cap, not the doubling, must fit int32.
	c.timeout = int32(min(2*int(c.timeout), n.inj.Cfg.BackoffCapTicks))
	c.retryAt = n.ticks + uint64(c.timeout)
	// The retransmit carries Open so a lost SYN is recovered too; the
	// kernel treats a duplicate open on an established connection as data.
	n.sendToServer(kernel.Frame{Conn: c.conn, Bytes: n.cfg.RequestBytes, Open: true})
}

// resetClient abandons the in-flight request and frees the client to start
// over on a fresh connection.
func (n *Network) resetClient(c *client, i int32) {
	n.files.Delete(c.conn)
	n.unbindConn(c)
	if c.state == csWaiting {
		n.waiting--
	}
	c.state = csIdle
	c.reqsLeft = 0
	c.closing = false
	c.disarmRetry()
	c.sendLeft = 0
	c.sendAt = 0
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
	if n.refScan {
		// Reference full-scan driver (test hook): visit every client. The
		// wheel clock still advances and fired stamps clear so the two
		// drivers stay interchangeable mid-run.
		for _, e := range n.wheel.Advance(n.ticks) {
			if c := &n.clients[e.ID]; c.wakeAt == e.Due {
				c.wakeAt = 0
			}
		}
		for i := range n.clients {
			n.stepClient(int32(i))
		}
		return n.outBuf
	}
	n.due = n.due[:0]
	for _, e := range n.wheel.Advance(n.ticks) {
		c := &n.clients[e.ID]
		if c.wakeAt != e.Due {
			continue // stale: superseded by a re-arm
		}
		c.wakeAt = 0
		n.due = append(n.due, e.ID)
	}
	// The wheel fires in slot order; the reference scan ran in client
	// order. Sorting restores the canonical order (and RNG draw order).
	slices.Sort(n.due)
	for _, i := range n.due {
		n.stepClient(i)
	}
	return n.outBuf
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
	// Flush pending TCP acknowledgments for in-flight transfers.
	for c.acks > 0 {
		c.acks--
		n.sendToServer(kernel.Frame{Conn: c.conn, Ack: true})
	}
	if c.state == csWaiting && c.sendLeft > 0 && n.ticks >= c.sendAt {
		// Slow trickle: the next request chunk.
		chunk := int32(max(n.cfg.RequestBytes/4, 1))
		if chunk > c.sendLeft {
			chunk = c.sendLeft
		}
		c.sendLeft -= chunk
		n.sendToServer(kernel.Frame{Conn: c.conn, Bytes: int(chunk)})
		if c.sendLeft == 0 {
			// Request fully sent; only now does the ordinary
			// retransmit timer take over.
			n.armRetry(c, true)
		} else {
			c.sendAt = n.ticks + uint64(n.inj.Cfg.TrickleTicks)
		}
	}
	if c.state == csWaiting && c.sendLeft == 0 && c.retryAt != 0 && n.ticks >= c.retryAt {
		n.retryExpired(c, i)
	}
	if c.state != csIdle || c.nextAt > n.ticks {
		return
	}
	if c.closing {
		// Tear down the kept-alive connection before the next one.
		c.closing = false
		n.sendToServer(kernel.Frame{Conn: c.conn, Close: true})
		n.unbindConn(c)
	}
	size := n.sampleFile()
	c.got = 0
	c.want = int32(size)
	c.state = csWaiting
	n.waiting++
	c.startTick = n.ticks
	n.Requests++
	if c.conn != 0 {
		// Keep-alive: next request travels on the open connection.
		n.files.Put(c.conn, size)
		n.sendToServer(kernel.Frame{Conn: c.conn, Bytes: n.cfg.RequestBytes})
		n.armRetry(c, true)
		return
	}
	conn := n.nextID
	n.nextID++
	n.files.Put(conn, size)
	n.bindConn(c, i, conn)
	c.reqsLeft = int32(n.cfg.RequestsPerConn - 1)
	if c.reqsLeft < 0 || (c.kind == ckBurst && n.overloadOn()) {
		// Flash-crowd arrivals are one-shot connections.
		c.reqsLeft = 0
	}
	if c.kind == ckSlow && n.overloadOn() {
		// Slowloris: a bare SYN now, the request body in trickled
		// chunks. The worker that accepts blocks in read meanwhile.
		c.sendLeft = int32(n.cfg.RequestBytes)
		c.sendAt = n.ticks + uint64(n.inj.Cfg.TrickleTicks)
		n.sendToServer(kernel.Frame{Conn: conn, Open: true})
	} else {
		n.sendToServer(kernel.Frame{Conn: conn, Bytes: n.cfg.RequestBytes, Open: true})
	}
	n.armRetry(c, true)
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
	if c.state == csWaiting {
		if fr.Close {
			if n.faultsOn() && c.got < c.want {
				// Connection torn down mid-response (worker crash / kernel
				// reaping an orphaned socket): treat as a reset and start
				// over on a fresh connection.
				n.Resets++
				n.resetClient(c, i)
			} else {
				n.finish(c, i)
			}
			n.scheduleNeeds(i)
			return
		}
		c.got += int32(fr.Bytes)
		n.BytesServed += uint64(fr.Bytes)
		// One acknowledgment per response segment.
		c.acks++
		if c.got >= c.want {
			n.finish(c, i)
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
		n.files.Delete(c.conn)
		n.unbindConn(c)
		c.closing = false
		n.scheduleNeeds(i)
	}
}

func (n *Network) finish(c *client, i int32) {
	n.Completed++
	n.PerClass[classOf(int(c.want))]++
	if n.overloadOn() || n.cfg.MeasureLatency {
		n.Latency.Observe(n.ticks - c.startTick)
	}
	n.files.Delete(c.conn)
	c.state = csIdle
	n.waiting--
	c.nextAt = n.ticks + 1 + uint64(n.cfg.ThinkTicks)
	c.disarmRetry()
	c.sendLeft = 0
	c.sendAt = 0
	if n.overloadOn() {
		switch c.kind {
		case ckBurst:
			// Flash-crowd client: one request, then back to the dormant
			// pool. The connection is abandoned without a FIN; the
			// server side closes it (or the idle reaper does).
			n.unbindConn(c)
			c.nextAt = dormantTick
			n.pushDormant(i)
			return
		case ckStorm:
			// Keep-alive storm: hold the connection open across a long
			// think time, pinning the worker in its blocked read. Only a
			// server-side close (the idle reaper) ends it.
			c.nextAt = n.ticks + 1 + uint64(n.inj.Cfg.StormHoldTicks)
			if c.reqsLeft > 0 {
				c.reqsLeft--
			}
			return
		}
	}
	if c.reqsLeft > 0 {
		// Connection stays open for the next request.
		c.reqsLeft--
		return
	}
	if n.cfg.RequestsPerConn > 1 {
		// Client-initiated close (the server waits in read for either the
		// next request or the FIN).
		c.closing = true
		return
	}
	n.unbindConn(c)
}

// FileSize returns the file size requested on a connection (0 if unknown);
// the Apache model uses it to drive stat/read/mmap behavior.
func (n *Network) FileSize(conn int) int {
	v, _ := n.files.Get(conn)
	return v
}

// Outstanding returns the number of clients with a request in flight.
func (n *Network) Outstanding() int { return n.waiting }
