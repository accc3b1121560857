package kernel

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/sys"
)

// netCfg is a kernel config for white-box network-stack tests (no engine
// attached; ticks driven by hand).
func netCfg() Config {
	cfg := DefaultConfig()
	cfg.CyclesPer10ms = 1 << 40
	return cfg
}

// openFrames delivers n fresh connections (conn ids 1..n) to the kernel.
func openFrames(k *Kernel, n int) {
	frames := make([]Frame, n)
	for i := range frames {
		frames[i] = Frame{Conn: i + 1, Bytes: 300, Open: true}
	}
	k.deliverFrames(frames)
}

// accept pops one pending connection through the syscall path and returns
// the socket id.
func accept(t *testing.T, k *Kernel, owner *Thread) int {
	t.Helper()
	sid, block := k.syscallEffect(owner, sys.Request{Num: sys.SysAccept, Resource: sys.ResNet})
	if block {
		t.Fatal("accept blocked with pending connections")
	}
	return sid
}

// TestAcceptQueueOrderAndCompaction: the head-indexed accept queue hands
// out connections FIFO across hundreds of accepts, and the consumed prefix
// is reclaimed (head never grows without bound).
func TestAcceptQueueOrderAndCompaction(t *testing.T) {
	cfg := netCfg()
	// One thread holds all 300 accepted sockets here; lift the per-process
	// descriptor limit so only queue mechanics are under test.
	cfg.FDLimit = 512
	k := New(cfg)
	owner := k.threads[0]
	openFrames(k, 300)
	ls := k.net.socks[ListenFD]
	if ls.acceptLen() != 300 {
		t.Fatalf("acceptLen = %d, want 300", ls.acceptLen())
	}
	prev := -1
	for i := 0; i < 300; i++ {
		sid := accept(t, k, owner)
		if sid <= prev {
			t.Fatalf("accept %d returned socket %d after %d: order broken", i, sid, prev)
		}
		prev = sid
		if so := k.net.socks[sid]; so.owner != owner.tid {
			t.Fatalf("accepted socket %d owner = %d, want %d", sid, so.owner, owner.tid)
		}
		// Post-pop invariant: the dead prefix stays below the compaction
		// floor or below the live tail — it never dominates the array.
		if ls.acceptHead >= 64 && ls.acceptHead >= ls.acceptLen() {
			t.Fatalf("after accept %d: dead prefix %d outweighs live tail %d, compaction never ran",
				i, ls.acceptHead, ls.acceptLen())
		}
	}
	if ls.acceptLen() != 0 || len(ls.acceptQ) != 0 || ls.acceptHead != 0 {
		t.Fatalf("drained queue not reset: len=%d head=%d", len(ls.acceptQ), ls.acceptHead)
	}
}

// TestAcceptQueuePartialConsumptionRoundTrip: a section saved with a
// partially-consumed accept queue holds only the live window, and the
// restored kernel hands out the remaining connections in the same order.
func TestAcceptQueuePartialConsumptionRoundTrip(t *testing.T) {
	cfg := netCfg()
	k := New(cfg)
	owner := k.threads[0]
	openFrames(k, 10)
	var takenBefore []int
	for i := 0; i < 4; i++ {
		takenBefore = append(takenBefore, accept(t, k, owner))
	}
	ls := k.net.socks[ListenFD]
	if ls.acceptHead == 0 {
		t.Fatal("test did not produce a partially-consumed queue")
	}

	live := append([]int(nil), ls.acceptQ[ls.acceptHead:]...)
	if len(live) != 6 {
		t.Fatalf("%d live accept-queue entries, want 6", len(live))
	}
	var sec checkpoint.Codec
	k.Sync(&sec, nil)

	k2 := New(cfg)
	d := checkpoint.NewReader("kernel", sec.Bytes())
	k2.Sync(&d, nil)
	if err := d.Finish(); err != nil {
		t.Fatalf("Load: %v", err)
	}
	ls2 := k2.net.socks[ListenFD]
	if ls2.acceptLen() != 6 || ls2.acceptHead != 0 {
		t.Fatalf("restored queue: len=%d head=%d, want 6 live at head 0", ls2.acceptLen(), ls2.acceptHead)
	}
	// The head is normalized away: the restored kernel, whose queue starts
	// at 0, writes the same section bytes.
	var sec2 checkpoint.Codec
	if k2.Sync(&sec2, nil); !bytes.Equal(sec.Bytes(), sec2.Bytes()) {
		t.Fatal("restored kernel writes a different section: the accept-queue head leaked into the encoding")
	}
	owner2 := k2.threads[0]
	for i, want := range live {
		if got := accept(t, k2, owner2); got != want {
			t.Fatalf("restored accept %d returned socket %d, want %d", i, got, want)
		}
	}
	// The restored sockets carry their overload state too.
	for _, sid := range takenBefore {
		a, b := k.net.socks[sid], k2.net.socks[sid]
		if a.lastActive != b.lastActive || a.reqBytes != b.reqBytes || a.served != b.served {
			t.Fatalf("socket %d overload state diverged: %+v vs %+v", sid, a, b)
		}
	}
}

// TestBacklogBoundRefusesSYNs: connections past the configured backlog are
// dropped and counted; the default bound applies when unset.
func TestBacklogBoundRefusesSYNs(t *testing.T) {
	cfg := netCfg()
	cfg.AcceptBacklog = 4
	k := New(cfg)
	openFrames(k, 7)
	ls := k.net.socks[ListenFD]
	if ls.acceptLen() != 4 {
		t.Fatalf("acceptLen = %d, want the backlog bound 4", ls.acceptLen())
	}
	if k.ConnsRefused != 3 {
		t.Fatalf("ConnsRefused = %d, want 3", k.ConnsRefused)
	}
	if k.net.Dropped != 3 {
		t.Fatalf("net.Dropped = %d, want 3", k.net.Dropped)
	}
	// Refused connections never got sockets or demux entries.
	for conn := 5; conn <= 7; conn++ {
		if _, ok := k.net.byConn.Get(conn); ok {
			t.Fatalf("refused conn %d has a demux entry", conn)
		}
	}

	if def := New(netCfg()); def.backlogLimit() != DefaultAcceptBacklog {
		t.Fatalf("default backlog = %d, want %d", def.backlogLimit(), DefaultAcceptBacklog)
	}
}

// TestIdleReaperClassifiesConnections: the reaper tears down both stalled
// (slowloris) and idle keep-alive connections after the timeout, classifying
// them by whether a response was ever written and request bytes are pending.
func TestIdleReaperClassifiesConnections(t *testing.T) {
	cfg := netCfg()
	cfg.IdleTimeoutTicks = 3
	k := New(cfg)
	owner := k.threads[0]
	openFrames(k, 2)
	slow := accept(t, k, owner) // request bytes pending, never served
	idle := accept(t, k, owner)
	// The idle one was served: the worker read the request and wrote the
	// response, then the client went quiet (keep-alive park).
	if n, block := k.syscallEffect(owner, sys.Request{
		Num: sys.SysRead, Resource: sys.ResNet, FD: idle, Blocking: true,
	}); block || n == 0 {
		t.Fatalf("read on idle socket: n=%d block=%v", n, block)
	}
	k.syscallEffect(owner, sys.Request{Num: sys.SysWrite, Resource: sys.ResNet, FD: idle, Bytes: 1000})

	// Two ticks pass: under the 3-tick timeout, nothing reaped yet.
	k.net.tick(1)
	k.net.tick(2)
	k.reapIdle()
	if k.ReapedIdle+k.ReapedSlowloris != 0 {
		t.Fatalf("reaper fired before the timeout: idle=%d slow=%d", k.ReapedIdle, k.ReapedSlowloris)
	}
	// A third tick crosses the timeout for both sockets.
	k.net.tick(3)
	k.reapIdle()
	if k.ReapedSlowloris != 1 || k.ReapedIdle != 1 {
		t.Fatalf("reap classification: idle=%d slow=%d, want 1 and 1", k.ReapedIdle, k.ReapedSlowloris)
	}
	for _, sid := range []int{slow, idle} {
		so := k.net.socks[sid]
		if !so.closed {
			t.Fatalf("reaped socket %d not closed", sid)
		}
		if _, ok := k.net.byConn.Get(so.conn); ok {
			t.Fatalf("reaped socket %d still demuxed", sid)
		}
	}
	// The listen socket and unaccepted backlog entries are never timed.
	if k.net.socks[ListenFD].closed {
		t.Fatal("reaper closed the listen socket")
	}
}

// TestReapWakesBlockedReader: reaping a connection whose owner is blocked
// in read wakes the reader with 0 (peer closed), so the worker runs its
// ordinary connection-close path.
func TestReapWakesBlockedReader(t *testing.T) {
	cfg := netCfg()
	cfg.IdleTimeoutTicks = 2
	k := New(cfg)
	owner := k.threads[0]
	k.deliverFrames([]Frame{{Conn: 1, Open: true}}) // bare SYN, no data
	sid := accept(t, k, owner)
	if _, block := k.syscallEffect(owner, sys.Request{
		Num: sys.SysRead, Resource: sys.ResNet, FD: sid, Blocking: true,
	}); !block {
		t.Fatal("read on an empty socket did not block")
	}
	k.net.tick(1)
	k.net.tick(2)
	k.reapIdle()
	if k.ReapedSlowloris+k.ReapedIdle != 1 {
		t.Fatalf("stalled socket not reaped: idle=%d slow=%d", k.ReapedIdle, k.ReapedSlowloris)
	}
	so := k.net.socks[sid]
	if len(so.waiters) != 0 {
		t.Fatal("blocked reader still parked on the reaped socket")
	}
	if owner.wakeResult != 0 {
		t.Fatalf("woken reader got %d, want 0 (peer closed)", owner.wakeResult)
	}
}
