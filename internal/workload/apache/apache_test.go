package apache

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/sys"
	"repro/internal/workload"
)

// drive advances a program through steps, answering syscalls like a trivial
// kernel: accept returns fd 7 (conn 7), reads return the chosen file size's
// request, everything else returns 0.
type driver struct {
	prog     *workload.ScriptProgram
	calls    []uint16
	runInsts uint64
}

func (d *driver) step() workload.Step {
	s := d.prog.Next()
	switch s.Kind {
	case workload.StepRun:
		d.runInsts += s.N
	case workload.StepSyscall:
		d.calls = append(d.calls, s.Req.Num)
		res := 0
		switch {
		case s.Req.Num == sys.SysAccept:
			res = 7
		case s.Req.Num == sys.SysRead && s.Req.Resource == sys.ResNet:
			res = 300 // the request bytes
		}
		d.prog.OnSyscallResult(s.Req, res)
	}
	return s
}

func newServer(t *testing.T, fileBytes int) (*Server, *driver) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Processes = 1
	cfg.ConnOf = func(fd int) int { return fd }
	cfg.FileSize = func(conn int) int { return fileBytes }
	srv := New(cfg)
	return srv, &driver{prog: srv.Programs()[0]}
}

func countCalls(calls []uint16, n uint16) int {
	k := 0
	for _, c := range calls {
		if c == n {
			k++
		}
	}
	return k
}

func TestRequestLoopSmallFile(t *testing.T) {
	srv, d := newServer(t, 5000)
	for i := 0; i < 200 && srv.RequestsHandled < 3; i++ {
		d.step()
	}
	if srv.RequestsHandled < 3 {
		t.Fatalf("handled only %d requests", srv.RequestsHandled)
	}
	// Per request: accept, net read, stat, open, file read(s), writev, 2 closes.
	for _, want := range []uint16{sys.SysAccept, sys.SysStat, sys.SysOpen, sys.SysWritev, sys.SysClose} {
		if countCalls(d.calls, want) < 3 {
			t.Fatalf("%s called %d times over 3 requests", sys.Name(want), countCalls(d.calls, want))
		}
	}
	// 5 KB file read in 8 KB chunks: exactly one file read per request, plus
	// the request read on the socket.
	if got := countCalls(d.calls, sys.SysRead); got < 6 {
		t.Fatalf("reads = %d, want >= 6 (request + file per request)", got)
	}
	// Small files never mmap.
	if countCalls(d.calls, sys.SysSmmap) != 0 {
		t.Fatal("small file used mmap")
	}
	if d.runInsts == 0 {
		t.Fatal("no user compute between syscalls")
	}
}

func TestLargeFileUsesMmap(t *testing.T) {
	srv, d := newServer(t, 300_000)
	for i := 0; i < 200 && srv.RequestsHandled < 2; i++ {
		d.step()
	}
	if srv.RequestsHandled < 2 {
		t.Fatalf("handled %d requests", srv.RequestsHandled)
	}
	if countCalls(d.calls, sys.SysSmmap) < 2 || countCalls(d.calls, sys.SysMunmap) < 2 {
		t.Fatalf("mmap/munmap not used for large file: %d/%d",
			countCalls(d.calls, sys.SysSmmap), countCalls(d.calls, sys.SysMunmap))
	}
	// The mmap path must still writev the response.
	if countCalls(d.calls, sys.SysWritev) < 2 {
		t.Fatal("mmap path skipped writev")
	}
}

func TestSharedTextAcrossProcesses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processes = 3
	srv := New(cfg)
	progs := srv.Programs()
	pcs := map[uint64]bool{}
	for _, p := range progs {
		var in isa.Inst
		p.Walker().NextInto(&in)
		pcs[in.PC&^0xffff] = true
	}
	if len(pcs) != 1 {
		t.Fatalf("processes do not share text: %d distinct bases", len(pcs))
	}
	base, size := TextRange()
	if base == 0 || size == 0 {
		t.Fatal("TextRange empty")
	}
}

func TestPrivateDataPerProcess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processes = 2
	srv := New(cfg)
	progs := srv.Programs()
	addr := func(p *workload.ScriptProgram) uint64 {
		w := p.Walker()
		for {
			var in isa.Inst
			w.NextInto(&in)
			if in.Class.IsMem() {
				return in.Addr
			}
		}
	}
	a, b := addr(progs[0]), addr(progs[1])
	if a>>40 == b>>40 && a == b {
		t.Fatalf("processes share data addresses: %#x %#x", a, b)
	}
}

func TestWritevBytesMatchFile(t *testing.T) {
	srv, d := newServer(t, 12_345)
	var wv []int
	for i := 0; i < 200 && srv.RequestsHandled < 2; i++ {
		s := d.step()
		if s.Kind == workload.StepSyscall && s.Req.Num == sys.SysWritev {
			wv = append(wv, s.Req.Bytes)
		}
	}
	if len(wv) < 2 {
		t.Fatalf("writev count %d", len(wv))
	}
	for _, b := range wv {
		if b != 12_345 {
			t.Fatalf("writev bytes = %d, want 12345", b)
		}
	}
}

func TestKeepAliveServesMultipleRequestsPerConn(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Processes = 1
	cfg.KeepAlive = true
	cfg.ConnOf = func(fd int) int { return fd }
	cfg.FileSize = func(conn int) int { return 4000 }
	srv := New(cfg)
	prog := srv.Programs()[0]
	accepts, reads, closes := 0, 0, 0
	served := 0
	for i := 0; i < 400 && srv.RequestsHandled < 3; i++ {
		s := prog.Next()
		if s.Kind != workload.StepSyscall {
			continue
		}
		res := 0
		switch {
		case s.Req.Num == sys.SysAccept:
			accepts++
			res = 9
		case s.Req.Num == sys.SysRead && s.Req.Resource == sys.ResNet:
			reads++
			// Three requests arrive on the connection, then the client
			// closes (read returns 0).
			if served < 3 {
				served++
				res = 300
			} else {
				res = 0
			}
		case s.Req.Num == sys.SysClose && s.Req.Resource == sys.ResNet:
			closes++
		}
		prog.OnSyscallResult(s.Req, res)
	}
	if srv.RequestsHandled < 3 {
		t.Fatalf("handled %d requests", srv.RequestsHandled)
	}
	if accepts != 1 {
		t.Fatalf("accepts = %d, want 1 (keep-alive)", accepts)
	}
	if closes != 0 {
		t.Fatalf("net closes = %d before the client's FIN, want 0", closes)
	}
	// Deliver the FIN: the server's pending keep-alive read returns 0,
	// after which it closes the connection and returns to accept.
	for i := 0; i < 40; i++ {
		s := prog.Next()
		if s.Kind != workload.StepSyscall {
			continue
		}
		res := 0
		if s.Req.Num == sys.SysAccept {
			break
		}
		if s.Req.Num == sys.SysClose && s.Req.Resource == sys.ResNet {
			closes++
		}
		prog.OnSyscallResult(s.Req, res)
	}
	if closes != 1 {
		t.Fatalf("net closes after FIN = %d, want 1", closes)
	}
}
