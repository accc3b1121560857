// Equivalence tests: the event-driven driver (timer wheel + due list) must
// produce a frame stream and final state bit-identical to the reference
// full-scan driver across plain, faulty, overload, and churn scenarios.
package netsim

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/kernel"
)

// fakeServer is a minimal deterministic server peer: it accepts
// connections, answers each request with segmented response data at a
// bounded per-tick rate, and (under a stateless hash coin) occasionally
// closes a connection mid-response like a crashed worker would — enough to
// exercise every client path (acks, trickle, retries, resets, bursts,
// keep-alive FINs) without dragging the whole kernel in.
type fakeServer struct {
	net   *Network
	tick  uint64
	left  map[int]int // conn -> unsent response bytes
	known map[int]bool
	order []int // conns in arrival order (deterministic iteration)
	// closeMod, when > 0, closes a conn mid-stream whenever a pure hash
	// of (conn, tick) lands on 0 mod closeMod (≈ 1/closeMod per conn-tick).
	closeMod uint64
}

func newFakeServer(n *Network, closeMod uint64) *fakeServer {
	return &fakeServer{
		net:      n,
		left:     map[int]int{},
		known:    map[int]bool{},
		closeMod: closeMod,
	}
}

// closeCoin is a pure function of (conn, tick): clonable server state.
func (s *fakeServer) closeCoin(conn int) bool {
	if s.closeMod == 0 {
		return false
	}
	h := uint64(conn)*0x9e3779b97f4a7c15 ^ s.tick*0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h%s.closeMod == 0
}

// step consumes one tick's client→server frames and transmits responses.
func (s *fakeServer) step(frames []kernel.Frame) {
	s.tick++
	for _, fr := range frames {
		if fr.Corrupt || fr.Ack || fr.Conn == 0 {
			continue
		}
		if fr.Close {
			delete(s.known, fr.Conn)
			delete(s.left, fr.Conn)
			continue
		}
		if !s.known[fr.Conn] {
			s.known[fr.Conn] = true
			s.order = append(s.order, fr.Conn)
		}
		if fr.Bytes > 0 && s.left[fr.Conn] == 0 {
			if sz := s.net.FileSize(fr.Conn); sz > 0 {
				s.left[fr.Conn] = sz
			}
		}
	}
	kept := s.order[:0]
	for _, conn := range s.order {
		if !s.known[conn] {
			continue
		}
		kept = append(kept, conn)
		if s.closeCoin(conn) {
			delete(s.known, conn)
			delete(s.left, conn)
			kept = kept[:len(kept)-1]
			s.net.Transmit(kernel.Frame{Conn: conn, Close: true}, 0)
			continue
		}
		// Up to two 1460-byte segments per tick per connection.
		for seg := 0; seg < 2 && s.left[conn] > 0; seg++ {
			chunk := 1460
			if chunk > s.left[conn] {
				chunk = s.left[conn]
			}
			s.left[conn] -= chunk
			s.net.Transmit(kernel.Frame{Conn: conn, Bytes: chunk}, 0)
		}
	}
	s.order = kept
}

// clone deep-copies the server for restored-continuation comparisons.
func (s *fakeServer) clone(n *Network) *fakeServer {
	c := newFakeServer(n, s.closeMod)
	c.tick = s.tick
	for k, v := range s.left {
		c.left[k] = v
	}
	for k, v := range s.known {
		c.known[k] = v
	}
	c.order = append([]int{}, s.order...)
	return c
}

type scenario struct {
	name   string
	cfg    Config
	faults faults.Config
	ticks  int
	// serverCloseMod injects server-side mid-stream closes at a rate of
	// about one per conn per serverCloseMod ticks (0 = none).
	serverCloseMod uint64
}

func scenarios() []scenario {
	return []scenario{
		{
			name:  "paper-plain",
			cfg:   Config{Clients: 128, Seed: 99, RequestBytes: 300},
			ticks: 2000,
		},
		{
			name: "keepalive-think",
			cfg:  Config{Clients: 128, Seed: 3, RequestBytes: 300, ThinkTicks: 7, RequestsPerConn: 4},

			ticks: 2000,
		},
		{
			name: "faults-lossy",
			cfg:  Config{Clients: 128, Seed: 5, RequestBytes: 300, ThinkTicks: 2},
			faults: faults.Config{
				Seed: 11, LossRate: 0.05, CorruptRate: 0.02,
				DelayRate: 0.10, MaxDelayTicks: 4,
			},
			ticks:          2500,
			serverCloseMod: 500,
		},
		{
			name: "overload-mixed",
			cfg: Config{
				Clients: 128, Seed: 8, RequestBytes: 300, ThinkTicks: 3,
				RequestsPerConn: 4, BurstPool: 64,
			},
			faults: faults.Config{
				Seed: 13, LossRate: 0.02,
				SlowClientRate: 0.10, TrickleTicks: 3,
				StormClientRate: 0.10, StormHoldTicks: 12,
				BurstEvery: 10, BurstSize: 16,
			},
			ticks:          2500,
			serverCloseMod: 250,
		},
		{
			name: "stagger-large",
			cfg: Config{
				Clients: 1000, Seed: 21, RequestBytes: 300, ThinkTicks: 20,
				StaggerTicks: 50,
			},
			faults: faults.Config{Seed: 17, LossRate: 0.01},
			ticks:  1200,
		},
	}
}

// buildNet constructs a Network (and injector) for a scenario.
func buildNet(sc scenario, ref bool) *Network {
	n := New(sc.cfg)
	n.SetReferenceScan(ref)
	if sc.faults != (faults.Config{}) {
		n.SetFaults(faults.NewInjector(sc.faults))
	}
	return n
}

// snapBytes returns the network's checkpoint section: its canonical state.
func snapBytes(t *testing.T, n *Network) []byte {
	t.Helper()
	var e checkpoint.Codec
	n.Sync(&e)
	return e.Bytes()
}

// loadSection runs load over section b and fails the test on any error.
func loadSection(t *testing.T, b []byte, load func(*checkpoint.Codec)) {
	t.Helper()
	d := checkpoint.NewReader("test", b)
	load(&d)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
}

// restoreNet restores n's checkpoint section (and its injector's) into a
// fresh Network built for sc, and fails the test unless saving the
// restored network gives the same bytes back.
func restoreNet(t *testing.T, sc scenario, n *Network) *Network {
	t.Helper()
	snap := snapBytes(t, n)
	restored := New(sc.cfg)
	if n.inj != nil {
		inj := faults.NewInjector(sc.faults)
		var injSec checkpoint.Codec
		n.inj.Sync(&injSec)
		loadSection(t, injSec.Bytes(), inj.Sync)
		// SetFaults would redraw client kinds from the injector stream;
		// attach the injector first, then overwrite all client state from
		// the section (the core restore path does the same dance).
		restored.SetFaults(inj)
	}
	loadSection(t, snap, restored.Sync)
	if !bytes.Equal(snapBytes(t, restored), snap) {
		t.Fatal("load→save is not the identity")
	}
	return restored
}

// TestEventDrivenMatchesReference pins byte-identity of the event-driven
// driver against the reference full-scan driver: same frames every tick,
// same final serialized state.
func TestEventDrivenMatchesReference(t *testing.T) {
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			ev := buildNet(sc, false)
			rf := buildNet(sc, true)
			evSrv := newFakeServer(ev, sc.serverCloseMod)
			rfSrv := newFakeServer(rf, sc.serverCloseMod)
			for tick := 1; tick <= sc.ticks; tick++ {
				a := ev.Tick(uint64(tick))
				b := rf.Tick(uint64(tick))
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("tick %d: frame streams diverge\nevent:     %v\nreference: %v", tick, a, b)
				}
				// The kernel copies the batch out within the cycle; do the
				// same before the next Tick reuses the buffer.
				evSrv.step(append([]kernel.Frame{}, a...))
				rfSrv.step(append([]kernel.Frame{}, b...))
			}
			if ev.Completed == 0 {
				t.Fatal("scenario completed no requests; not exercising anything")
			}
			if got, want := snapBytes(t, ev), snapBytes(t, rf); !bytes.Equal(got, want) {
				t.Fatal("final serialized state diverges between drivers")
			}
		})
	}
}

// TestOutstandingMatchesScan pins the O(1) waiting gauge against a direct
// state count while the overload scenario churns.
func TestOutstandingMatchesScan(t *testing.T) {
	sc := scenarios()[3]
	n := buildNet(sc, false)
	srv := newFakeServer(n, sc.serverCloseMod)
	for tick := 1; tick <= 800; tick++ {
		srv.step(append([]kernel.Frame{}, n.Tick(uint64(tick))...))
		want := 0
		for i := range n.clients {
			if n.clients[i].state == csWaiting {
				want++
			}
		}
		if got := n.Outstanding(); got != want {
			t.Fatalf("tick %d: Outstanding() = %d, scan says %d", tick, got, want)
		}
	}
}

// TestSnapshotRoundTripMidWheel checkpoints the overload scenario at a tick
// where retransmit timers are armed and the dormant burst pool is
// populated, restores into a fresh Network, and requires (a) an identical
// re-serialization and (b) a bit-identical continuation — the canonical
// re-arm must reconstruct the wheel, heap, demux index, and waiting gauge
// exactly.
func TestSnapshotRoundTripMidWheel(t *testing.T) {
	sc := scenarios()[3] // overload-mixed: retries + bursts + keep-alive
	const half = 1000

	n := buildNet(sc, false)
	srv := newFakeServer(n, sc.serverCloseMod)
	for tick := 1; tick <= half; tick++ {
		srv.step(append([]kernel.Frame{}, n.Tick(uint64(tick))...))
	}

	// The mid-wheel preconditions the satellite asks for: armed retransmit
	// timers and a non-empty dormant pool at checkpoint time.
	armed, dormant := 0, 0
	for i := range n.clients {
		if n.clients[i].retryAt != 0 {
			armed++
		}
		if n.clients[i].nextAt == dormantTick {
			dormant++
		}
	}
	if armed == 0 {
		t.Fatal("no armed retransmit timers at checkpoint tick; scenario too tame")
	}
	if dormant == 0 {
		t.Fatal("dormant burst pool empty at checkpoint tick; scenario too tame")
	}

	restored := restoreNet(t, sc, n)

	// Continue both under identical servers: every subsequent tick must
	// match bit for bit.
	rsrv := srv.clone(restored)
	for tick := half + 1; tick <= half+600; tick++ {
		a := n.Tick(uint64(tick))
		b := restored.Tick(uint64(tick))
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("tick %d: restored continuation diverges", tick)
		}
		fr := append([]kernel.Frame{}, a...)
		srv.step(fr)
		rsrv.step(append([]kernel.Frame{}, b...))
	}
}
