package netsim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
)

// lossy builds a 1-client network with an attached injector.
func lossy(t *testing.T, fcfg faults.Config, ncfg Config) (*Network, *faults.Injector) {
	t.Helper()
	if err := fcfg.Validate(); err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(fcfg)
	n := New(ncfg)
	n.SetFaults(inj)
	return n, inj
}

// TestRetransmitBackoffAndAbort: with a wire that loses everything, the
// client retries under exponential backoff until the budget is spent, then
// abandons the request and starts a fresh one.
func TestRetransmitBackoffAndAbort(t *testing.T) {
	n, inj := lossy(t, faults.Config{Seed: 1, LossRate: 1}, Config{Clients: 1, Seed: 1})
	for i := uint64(0); i < 400; i++ {
		if out := n.Tick(i); len(out) != 0 {
			t.Fatalf("tick %d: frame crossed a 100%%-loss wire: %+v", i, out)
		}
	}
	// Each aborted request burned the full retry budget; the request still
	// in flight at the end may hold up to one more budget's worth.
	budget := uint64(faults.DefaultMaxRetries)
	if n.Retransmits < budget*n.Aborted || n.Retransmits > budget*(n.Aborted+1) {
		t.Fatalf("retransmits %d, aborted %d: budget is %d per request",
			n.Retransmits, n.Aborted, budget)
	}
	if n.Aborted < 2 {
		t.Fatalf("aborted %d times in 400 ticks, expected repeated fresh requests", n.Aborted)
	}
	if n.Requests != n.Aborted+1 && n.Requests != n.Aborted {
		t.Fatalf("requests %d vs aborted %d: each abort should trigger a fresh request",
			n.Requests, n.Aborted)
	}
	if inj.DroppedToServer == 0 {
		t.Fatal("no drops counted")
	}
}

// TestBackoffIsExponentialAndCapped pins the retry schedule: with the
// default 3-tick timeout the retransmits of one request fire at +3, +6,
// +12, +24, +48 ticks after issue (doubling, capped at 48).
func TestBackoffIsExponentialAndCapped(t *testing.T) {
	n, _ := lossy(t, faults.Config{Seed: 1, LossRate: 1}, Config{Clients: 1, Seed: 1})
	var fires []uint64
	last := n.Retransmits
	for i := uint64(0); i < 100 && len(fires) < faults.DefaultMaxRetries; i++ {
		n.Tick(i)
		if n.Retransmits != last {
			last = n.Retransmits
			fires = append(fires, n.ticks)
		}
	}
	// The request issues on the first tick (counter 1).
	want := []uint64{1 + 3, 1 + 3 + 6, 1 + 3 + 6 + 12, 1 + 3 + 6 + 12 + 24, 1 + 3 + 6 + 12 + 24 + 48}
	if len(fires) != len(want) {
		t.Fatalf("saw %d retransmits, want %d", len(fires), len(want))
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("retransmit %d fired at tick %d, want %d (schedule %v)", i, fires[i], want[i], fires)
		}
	}
}

// TestLostSynRecovered: a dropped connection-opening request is recovered by
// a retransmit that carries Open, and the request then completes.
func TestLostSynRecovered(t *testing.T) {
	n, inj := lossy(t, faults.Config{Seed: 1, LossRate: 1}, Config{Clients: 1, Seed: 2})
	if out := n.Tick(0); len(out) != 0 {
		t.Fatalf("SYN crossed a 100%%-loss wire: %+v", out)
	}
	if inj.DroppedToServer != 1 {
		t.Fatalf("dropped = %d", inj.DroppedToServer)
	}
	// The wire heals; the retransmit timer fires at tick 3 (tick counter 4).
	inj.Cfg.LossRate = 0
	var retx []kernel.Frame
	for i := uint64(1); i <= 5 && len(retx) == 0; i++ {
		retx = n.Tick(i)
	}
	if len(retx) != 1 || !retx[0].Open || retx[0].Bytes == 0 {
		t.Fatalf("retransmit not emitted or malformed: %+v", retx)
	}
	if n.Retransmits != 1 {
		t.Fatalf("retransmits = %d", n.Retransmits)
	}
	// Server answers in full: the request completes and retry state clears.
	conn := retx[0].Conn
	n.Transmit(kernel.Frame{Conn: conn, Bytes: n.FileSize(conn)}, 0)
	if n.Completed != 1 {
		t.Fatalf("completed = %d", n.Completed)
	}
	if r := n.reqOf(&n.clients[0]); r.retryAt != 0 || r.retries != 0 {
		t.Fatalf("retry state survived completion: %+v", *r)
	}
}

// TestServerCloseMidRequestIsReset: under fault injection, a Close arriving
// before the response finished (a crashed worker's socket being reaped) is a
// reset — the client abandons the transfer and reconnects fresh.
func TestServerCloseMidRequestIsReset(t *testing.T) {
	// CrashRate>0 arms the recovery layer without any network-side sampling.
	n, _ := lossy(t, faults.Config{Seed: 1, CrashRate: 0.5}, Config{Clients: 1, Seed: 3})
	out := n.Tick(0)
	if len(out) != 1 || !out[0].Open {
		t.Fatalf("no request issued: %+v", out)
	}
	conn := out[0].Conn
	want := n.FileSize(conn)
	n.Transmit(kernel.Frame{Conn: conn, Bytes: want / 2}, 0) // partial response
	n.Transmit(kernel.Frame{Conn: conn, Close: true}, 0)     // worker died
	if n.Resets != 1 || n.Completed != 0 {
		t.Fatalf("resets=%d completed=%d", n.Resets, n.Completed)
	}
	// The client reconnects on a fresh connection id.
	var again []kernel.Frame
	for i := uint64(1); i <= 3 && len(again) == 0; i++ {
		for _, fr := range n.Tick(i) {
			if fr.Open {
				again = append(again, fr)
			}
		}
	}
	if len(again) != 1 || again[0].Conn == conn {
		t.Fatalf("client did not reconnect freshly: %+v", again)
	}
}

// echoServer answers every request frame with the full response, like a
// perfectly fast Apache; used to drive the client fleet deterministically.
func echoServer(n *Network, frames []kernel.Frame) {
	for _, fr := range frames {
		if fr.Corrupt || fr.Ack || fr.Close {
			continue
		}
		if size := n.FileSize(fr.Conn); size > 0 {
			n.Transmit(kernel.Frame{Conn: fr.Conn, Bytes: size}, 0)
		}
	}
}

// TestKeepAliveWithFaultsDeterministic: persistent connections under a lossy
// wire complete requests, and the same seed + fault config reproduces every
// counter bit-identically.
func TestKeepAliveWithFaultsDeterministic(t *testing.T) {
	run := func() *Network {
		n, _ := lossy(t,
			faults.Config{Seed: 11, LossRate: 0.15, CorruptRate: 0.05},
			Config{Clients: 8, Seed: 5, RequestsPerConn: 3})
		for i := uint64(0); i < 600; i++ {
			echoServer(n, n.Tick(i))
		}
		return n
	}
	a, b := run(), run()

	if a.Completed == 0 {
		t.Fatal("no requests completed under keep-alive + loss")
	}
	if a.Retransmits == 0 {
		t.Fatal("no retransmits under 15% loss")
	}
	type counters struct {
		req, done, bytes, retx, abort, resets uint64
		perClass                              [4]uint64
	}
	grab := func(n *Network) counters {
		return counters{n.Requests, n.Completed, n.BytesServed,
			n.Retransmits, n.Aborted, n.Resets, n.PerClass}
	}
	if grab(a) != grab(b) {
		t.Fatalf("identical seeded runs diverged:\n  a=%+v\n  b=%+v", grab(a), grab(b))
	}
}

// TestKeepAliveStillWorksWithoutFaults guards the baseline: RequestsPerConn>1
// with no injector behaves as before (no retry machinery armed).
func TestKeepAliveStillWorksWithoutFaults(t *testing.T) {
	n := New(Config{Clients: 2, Seed: 5, RequestsPerConn: 2})
	for i := uint64(0); i < 50; i++ {
		echoServer(n, n.Tick(i))
	}
	if n.Completed == 0 {
		t.Fatal("keep-alive baseline completed nothing")
	}
	if n.Retransmits+n.Aborted+n.Resets != 0 {
		t.Fatal("recovery counters moved without an injector")
	}
	for i := range n.clients {
		if n.reqOf(&n.clients[i]).retryAt != 0 {
			t.Fatal("retry timer armed without an injector")
		}
	}
}
