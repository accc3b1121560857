package netsim

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
)

// TestSlowClientTricklesRequest: a slowloris client opens with a bare SYN,
// then dribbles the request in chunks every TrickleTicks; the retransmit
// timer stays off until the request is fully sent.
func TestSlowClientTricklesRequest(t *testing.T) {
	n, _ := lossy(t,
		faults.Config{Seed: 1, SlowClientRate: 1, TrickleTicks: 4},
		Config{Clients: 1, Seed: 1, RequestBytes: 300})
	if n.clients[0].kind != ckSlow {
		t.Fatalf("client not classified slow: kind=%d", n.clients[0].kind)
	}

	out := n.Tick(0)
	if len(out) != 1 || !out[0].Open || out[0].Bytes != 0 {
		t.Fatalf("slow client should open with a bare SYN, got %+v", out)
	}
	conn := out[0].Conn

	// Chunks of RequestBytes/4 land every 4 ticks; no retransmit fires
	// mid-trickle even though the server never answers.
	var got int
	var chunkTicks []uint64
	for i := uint64(1); i <= 20; i++ {
		for _, fr := range n.Tick(i) {
			if fr.Conn != conn || fr.Bytes == 0 {
				t.Fatalf("tick %d: unexpected frame %+v", i, fr)
			}
			got += fr.Bytes
			chunkTicks = append(chunkTicks, n.ticks)
		}
		if got == 300 {
			break
		}
	}
	if got != 300 {
		t.Fatalf("trickle delivered %d of 300 request bytes (chunks at %v)", got, chunkTicks)
	}
	if len(chunkTicks) != 4 {
		t.Fatalf("expected 4 chunks of 75, saw %d at %v", len(chunkTicks), chunkTicks)
	}
	for i := 1; i < len(chunkTicks); i++ {
		if chunkTicks[i]-chunkTicks[i-1] != 4 {
			t.Fatalf("chunk gap %d ticks, want TrickleTicks=4 (schedule %v)",
				chunkTicks[i]-chunkTicks[i-1], chunkTicks)
		}
	}
	if n.Retransmits != 0 {
		t.Fatalf("retransmit fired mid-trickle: %d", n.Retransmits)
	}
	// Only after the last chunk does the ordinary retry timer arm.
	if n.clients[0].retryAt == 0 {
		t.Fatal("retry timer not armed after trickle completed")
	}

	// The server answers; the request completes and records its latency.
	n.Transmit(kernel.Frame{Conn: conn, Bytes: n.FileSize(conn)}, 0)
	if n.Completed != 1 {
		t.Fatalf("completed = %d", n.Completed)
	}
	if n.Latency.Count != 1 {
		t.Fatalf("latency histogram count = %d, want 1", n.Latency.Count)
	}
}

// TestStormClientHoldsConnection: a keep-alive storm client completes its
// request, then parks on the open connection for StormHoldTicks before the
// next request — which reuses the connection instead of opening fresh.
func TestStormClientHoldsConnection(t *testing.T) {
	n, _ := lossy(t,
		faults.Config{Seed: 2, StormClientRate: 1, StormHoldTicks: 10},
		Config{Clients: 1, Seed: 1, RequestsPerConn: 8})
	if n.clients[0].kind != ckStorm {
		t.Fatalf("client not classified storm: kind=%d", n.clients[0].kind)
	}

	out := n.Tick(0)
	if len(out) != 1 || !out[0].Open {
		t.Fatalf("no opening request: %+v", out)
	}
	conn := out[0].Conn
	n.Transmit(kernel.Frame{Conn: conn, Bytes: n.FileSize(conn)}, 0)
	if n.Completed != 1 {
		t.Fatalf("completed = %d", n.Completed)
	}
	if n.clients[0].conn != conn {
		t.Fatal("storm client released its connection at completion")
	}

	// Hold: nothing issues for StormHoldTicks; then the next request rides
	// the held connection (no Open flag).
	doneAt := n.ticks
	var next []kernel.Frame
	var nextAt uint64
	for i := uint64(1); i <= 20 && len(next) == 0; i++ {
		for _, fr := range n.Tick(doneAt + i) {
			if fr.Ack {
				continue
			}
			next = append(next, fr)
			nextAt = n.ticks
		}
	}
	if len(next) != 1 || next[0].Open || next[0].Conn != conn {
		t.Fatalf("storm client's next request should reuse conn %d without Open: %+v", conn, next)
	}
	if held := nextAt - doneAt; held <= 10 {
		t.Fatalf("storm client held only %d ticks, want > StormHoldTicks=10", held)
	}
}

// TestBurstPoolActivatesInWaves: dormant flash-crowd clients wake BurstSize
// at a time on the BurstEvery cadence, each issuing a one-shot connection
// and returning to the pool after completion.
func TestBurstPoolActivatesInWaves(t *testing.T) {
	n, _ := lossy(t,
		faults.Config{Seed: 3, BurstEvery: 5, BurstSize: 2},
		Config{Clients: 0, Seed: 1, BurstPool: 4})
	// Config.Clients 0 defaults to 128 base clients; park them far in the
	// future so only the burst pool speaks.
	for i := 0; i < n.cfg.Clients; i++ {
		n.clients[i].nextAt = 1 << 62
	}

	opens := map[uint64]int{} // tick -> fresh connections opened
	for i := uint64(0); i < 11; i++ {
		for _, fr := range n.Tick(i) {
			if fr.Open {
				opens[n.ticks]++
				// Serve immediately: one-shot clients finish and re-park.
				n.Transmit(kernel.Frame{Conn: fr.Conn, Bytes: n.FileSize(fr.Conn)}, 0)
			}
		}
	}
	if opens[5] != 2 || opens[10] != 2 {
		t.Fatalf("burst waves of 2 expected at ticks 5 and 10, got %v", opens)
	}
	if len(opens) != 2 {
		t.Fatalf("connections opened outside burst waves: %v", opens)
	}
	for i := n.cfg.Clients; i < len(n.clients); i++ {
		c := &n.clients[i]
		if c.state != csIdle || (c.nextAt != dormantTick && c.nextAt < 1<<32) {
			t.Fatalf("burst client %d did not return to the dormant pool: %+v", i, *c)
		}
		if c.conn != 0 {
			t.Fatalf("burst client %d still holds conn %d after completion", i, c.conn)
		}
	}
}

// TestOverloadDeterministicAndSnapshotRoundTrip: the full overload mix is
// bit-reproducible from a seed, and a mid-run snapshot restored into a
// freshly-built fleet continues identically to the uninterrupted original.
func TestOverloadDeterministicAndSnapshotRoundTrip(t *testing.T) {
	fcfg := faults.Config{
		Seed: 7, SlowClientRate: 0.3, TrickleTicks: 3,
		StormClientRate: 0.3, StormHoldTicks: 6, BurstEvery: 4, BurstSize: 2,
	}
	ncfg := Config{Clients: 8, Seed: 5, RequestsPerConn: 3, BurstPool: 4}
	build := func() *Network {
		n, _ := lossy(t, fcfg, ncfg)
		return n
	}

	type counters struct {
		req, done, retx, abort uint64
		latCount, latSum       uint64
	}
	grab := func(n *Network) counters {
		return counters{n.Requests, n.Completed, n.Retransmits, n.Aborted,
			n.Latency.Count, n.Latency.Sum}
	}

	a := build()
	for i := uint64(0); i < 100; i++ {
		echoServer(a, a.Tick(i))
	}
	snap := snapBytes(t, a)

	// Restored copy must pick up mid-trickle sends, parked burst clients,
	// held storm connections, and the partial latency histogram.
	b := build()
	loadSection(t, snap, b.Sync)
	if grab(a) != grab(b) {
		t.Fatalf("restore lost counters: a=%+v b=%+v", grab(a), grab(b))
	}
	for i := uint64(100); i < 200; i++ {
		echoServer(a, a.Tick(i))
		echoServer(b, b.Tick(i))
	}
	if grab(a) != grab(b) {
		t.Fatalf("restored fleet diverged: a=%+v b=%+v", grab(a), grab(b))
	}
	if a.Latency != b.Latency {
		t.Fatal("latency histograms diverged after restore")
	}
	if a.Completed == 0 || a.Latency.Count == 0 {
		t.Fatalf("overload mix completed nothing (done=%d lat=%d)", a.Completed, a.Latency.Count)
	}

	// And an identically-seeded uninterrupted run matches too.
	c := build()
	for i := uint64(0); i < 200; i++ {
		echoServer(c, c.Tick(i))
	}
	if grab(a) != grab(c) {
		t.Fatalf("seeded rerun diverged: a=%+v c=%+v", grab(a), grab(c))
	}
}

// TestOverloadOffIsInert: a zero overload config classifies nobody, parks
// no burst pool, and records no latency — the zero-perturbation guarantee
// at the netsim layer.
func TestOverloadOffIsInert(t *testing.T) {
	n, _ := lossy(t, faults.Config{Seed: 1, LossRate: 0.1}, Config{Clients: 4, Seed: 9})
	for i := uint64(0); i < 200; i++ {
		echoServer(n, n.Tick(i))
	}
	for i := range n.clients {
		if n.clients[i].kind != ckNormal {
			t.Fatalf("client %d classified %d with overload off", i, n.clients[i].kind)
		}
	}
	if n.Latency.Count != 0 {
		t.Fatalf("latency recorded %d observations with overload off", n.Latency.Count)
	}
}
