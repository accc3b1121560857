// Package apache models the Apache 1.3.4 web server of the paper's §2.3 and
// §3.2: a pre-forked pool of 64 server processes, each looping
// accept → read request → stat → open/mmap → read file → writev response →
// close, over a SPECWeb96 file set served from the OS file cache.
//
// All processes share one program text (they are forks of one binary) —
// this is registered as a shared mapping so the instruction cache sees a
// single copy, as on the real machine. Heaps and stacks are private.
//
// The syscall pattern is what produces the paper's Figure 7: stat is issued
// for every request (Apache's URI-to-file translation), reads/writevs move
// the request and response bytes, large files go through smmap/munmap, and
// every request costs an accept (+ an occasional select) on the network
// side — with user-mode parsing/logging bursts in between (Apache spends
// ~22% of cycles in user mode, Figure 5).
package apache

import (
	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/rng"
	"repro/internal/sys"
	"repro/internal/workload"
)

// Config parameterizes the server model.
type Config struct {
	// Processes is the pre-forked pool size (the paper: 64).
	Processes int
	// Seed drives per-process variation.
	Seed uint64
	// FileSize maps a connection to the requested file's size; wire to
	// netsim.Network.FileSize.
	FileSize func(conn int) int
	// ConnOf maps a socket fd to its connection id; wire to
	// kernel.Kernel.ConnOf.
	ConnOf func(fd int) int
	// MmapThreshold is the file size above which the server maps the file
	// instead of read()ing it.
	MmapThreshold int
	// ReadChunk is the read() granularity for smaller files.
	ReadChunk int
	// KeepAlive, when true, keeps connections open after a response and
	// reads the next request from the same socket (HTTP/1.1 behavior; the
	// paper's Apache 1.3.4 + SPECWeb96 setup is one request per
	// connection).
	KeepAlive bool
}

// DefaultConfig returns the paper's server setup (FileSize/ConnOf must
// still be wired).
func DefaultConfig() Config {
	return Config{
		Processes:     64,
		Seed:          7,
		MmapThreshold: 64 << 10,
		ReadChunk:     8 << 10,
	}
}

// Text layout: one shared text region for the whole pool.
const (
	textBase        = uint64(mem.UserTextBase)
	staticTextInsts = 36000 // ~140 KB of server text
)

// TextRange returns the shared text range to register with
// mem.Memory.ShareRange.
func TextRange() (base, size uint64) {
	return textBase, uint64(staticTextInsts)*4 + mem.PageSize
}

// profile is the Apache user-mode profile, from the user column of the
// paper's Table 5 (loads 21.8%, stores 10.1%, branches 16.7% — 70%
// conditional taken 54% — and no floating point).
func profile() workload.Profile {
	return workload.Profile{
		Name:        "apache",
		Mode:        isa.User,
		StaticInsts: staticTextInsts,
		Mix: workload.Mix{
			Load: 0.218, Store: 0.101, FP: 0,
			// Transfer-class static shares sit below the Table 5 dynamic
			// targets; the walk amplifies them (see kernelMix).
			CondBr: 0.117, UncondBr: 0.012, IndirectJump: 0.016,
		},
		CondTaken:     0.54,
		LoopFrac:      0.12,
		MeanTrips:     8,
		CallFrac:      0.55,
		SwitchTargets: 6,
		Data: []workload.DataSpec{
			// Private heap: request pool, buffers.
			{Size: 128 << 10, Hot: 8 << 10, Weight: 3, SeqFrac: 0.35, ColdFrac: 0.03},
			// Private stack.
			{Size: 32 << 10, Hot: 2 << 10, Weight: 1, SeqFrac: 0.3, ColdFrac: 0.01},
		},
		MeanDep: 7,
	}
}

// reqState is one server process's position in the request loop; the value
// names the next action the process will take.
type reqState uint8

const (
	stAccept reqState = iota
	stReadReq
	stParse
	stStat
	stOpen
	stTransfer
	stPrep
	stWrite
	stUnmap
	stCloseFile
	stCloseConn
	stLog
	stNextOrClose // keep-alive: wait for the next request or the FIN
)

// Server builds the process pool.
type Server struct {
	cfg    Config           //detlint:ignore snapshotcomplete configuration fixed at construction
	region *workload.Region //detlint:ignore snapshotcomplete static code region shared by the pool, rebuilt at assembly
	// nextSlot is the next process slot to hand out; slots beyond the
	// pre-forked pool are used by Respawn.
	nextSlot int
	// RequestsHandled counts completed request loops across the pool.
	RequestsHandled uint64
}

// New builds the server model. Call Programs to get the pool and register
// TextRange with the memory system.
func New(cfg Config) *Server {
	if cfg.Processes <= 0 {
		cfg.Processes = 64
	}
	if cfg.ReadChunk <= 0 {
		cfg.ReadChunk = 8 << 10
	}
	if cfg.MmapThreshold <= 0 {
		cfg.MmapThreshold = 64 << 10
	}
	r := rng.New(cfg.Seed ^ 0xa9ac4e)
	// One shared text region; data bases are rewritten per process.
	reg := workload.Build(profile(), textBase, func(i int, _ workload.DataSpec) uint64 {
		return 0
	}, r)
	return &Server{cfg: cfg, region: reg}
}

// Programs returns the pre-forked pool.
func (s *Server) Programs() []*workload.ScriptProgram {
	out := make([]*workload.ScriptProgram, s.cfg.Processes)
	for i := 0; i < s.cfg.Processes; i++ {
		out[i] = s.process(i + 1)
	}
	s.nextSlot = s.cfg.Processes
	return out
}

// Respawn builds a replacement worker after a crash (fault injection): a
// fresh fork with the shared text but its own slot, heap, and stack, so the
// kernel assigns it a new pid and ASN.
func (s *Server) Respawn() *workload.ScriptProgram {
	s.nextSlot++
	return s.process(s.nextSlot)
}

// ProcState is one server process's mutable script state. The process
// closures read and write it through a pointer, which is also published as
// ScriptProgram.State for the checkpoint layer.
type ProcState struct {
	St        reqState
	FD        int
	FileBytes int
	Sent      int
	Mapped    bool
	Served    bool
	MmapAddr  uint64
	Prng      *rng.Rand
}

// Save writes the script state to a checkpoint section.
func (ps *ProcState) Save(e *checkpoint.Enc) {
	e.Uint(uint64(ps.St))
	e.Int(int64(ps.FD))
	e.Int(int64(ps.FileBytes))
	e.Int(int64(ps.Sent))
	e.Bool(ps.Mapped)
	e.Bool(ps.Served)
	e.Uint(ps.MmapAddr)
	ps.Prng.Save(e)
}

// Load reads script state written by Save, in place.
func (ps *ProcState) Load(d *checkpoint.Dec) {
	ps.St = reqState(d.Uint())
	ps.FD = int(d.Int())
	ps.FileBytes = int(d.Int())
	ps.Sent = int(d.Int())
	ps.Mapped = d.Bool()
	ps.Served = d.Bool()
	ps.MmapAddr = d.Uint()
	ps.Prng.Load(d)
}

// ProcessFor rebuilds the process model for an existing slot (checkpoint
// restore). Unlike Respawn it does not advance the slot counter.
func (s *Server) ProcessFor(slot int) *workload.ScriptProgram {
	return s.process(slot)
}

// process builds one server process: shared text, private data.
func (s *Server) process(slot int) *workload.ScriptProgram {
	r := rng.New(s.cfg.Seed ^ uint64(slot)*0x9e37)
	reg := *s.region
	reg.Data = make([]workload.DataRegion, len(s.region.Data))
	copy(reg.Data, s.region.Data)
	heap := uint64(mem.UserDataBase) + uint64(slot)*mem.PIDStride
	stack := uint64(mem.UserStackBase) + uint64(slot)*mem.PIDStride
	reg.Data[0].Base = heap
	reg.Data[1].Base = stack
	w := workload.NewWalker(&reg, r.Split(1))
	w.ResetEvery = uint64(4 * staticTextInsts)

	ps := &ProcState{
		St:       stAccept,
		FD:       -1,
		MmapAddr: heap + 0x0400_0000,
		Prng:     r.Split(2),
	}

	run := func(n int) workload.Step {
		return workload.Step{Kind: workload.StepRun, N: uint64(n)}
	}
	call := func(req sys.Request) workload.Step {
		return workload.Step{Kind: workload.StepSyscall, Req: req}
	}

	next := func() workload.Step {
		switch ps.St {
		case stAccept:
			if ps.Prng.Bool(0.3) {
				// Apache occasionally polls before blocking in accept.
				return call(sys.Request{Num: sys.SysSelect, Resource: sys.ResNet, FD: kernelListenFD})
			}
			ps.St = stReadReq
			return call(sys.Request{Num: sys.SysAccept, Resource: sys.ResNet,
				FD: kernelListenFD, Blocking: true})
		case stReadReq:
			ps.St = stParse
			return call(sys.Request{Num: sys.SysRead, Resource: sys.ResNet,
				FD: ps.FD, Blocking: true})
		case stParse:
			ps.St = stStat
			return run(3600 + ps.Prng.Intn(2400))
		case stStat:
			ps.St = stOpen
			return call(sys.Request{Num: sys.SysStat, Resource: sys.ResFile})
		case stOpen:
			ps.St = stTransfer
			return call(sys.Request{Num: sys.SysOpen, Resource: sys.ResFile})
		case stTransfer:
			if ps.FileBytes > s.cfg.MmapThreshold && !ps.Mapped {
				ps.Mapped = true
				ps.St = stPrep
				return call(sys.Request{Num: sys.SysSmmap, Resource: sys.ResMemory,
					Addr: ps.MmapAddr, Bytes: ps.FileBytes})
			}
			if !ps.Mapped && ps.Sent < ps.FileBytes {
				n := ps.FileBytes - ps.Sent
				if n > s.cfg.ReadChunk {
					n = s.cfg.ReadChunk
				}
				ps.Sent += n
				return call(sys.Request{Num: sys.SysRead, Resource: sys.ResFile, Bytes: n})
			}
			ps.St = stWrite
			return run(5200 + ps.Prng.Intn(2800))
		case stPrep:
			ps.St = stWrite
			return run(1500 + ps.Prng.Intn(800))
		case stWrite:
			if ps.Mapped {
				ps.St = stUnmap
			} else {
				ps.St = stCloseFile
			}
			ps.Served = true
			return call(sys.Request{Num: sys.SysWritev, Resource: sys.ResNet,
				FD: ps.FD, Bytes: ps.FileBytes})
		case stUnmap:
			ps.St = stCloseFile
			return call(sys.Request{Num: sys.SysMunmap, Resource: sys.ResMemory, Addr: ps.MmapAddr})
		case stCloseFile:
			if s.cfg.KeepAlive {
				// The connection stays open; only the file is closed.
				ps.St = stLog
			} else {
				ps.St = stCloseConn
			}
			return call(sys.Request{Num: sys.SysClose, Resource: sys.ResFile})
		case stCloseConn:
			ps.St = stLog
			fdc := ps.FD
			ps.FD = -1
			return call(sys.Request{Num: sys.SysClose, Resource: sys.ResNet, FD: fdc})
		case stLog:
			if s.cfg.KeepAlive && ps.FD >= 0 {
				ps.St = stNextOrClose
			} else {
				ps.St = stAccept
			}
			if ps.Served {
				s.RequestsHandled++
				ps.Served = false
			}
			ps.FileBytes = 0
			ps.Sent = 0
			ps.Mapped = false
			return run(5200 + ps.Prng.Intn(2800))
		case stNextOrClose:
			// Blocking read: either the next request arrives (resultFn
			// moves us to stParse) or the peer closed (result 0 moves us
			// to stCloseConn).
			ps.St = stParse
			return call(sys.Request{Num: sys.SysRead, Resource: sys.ResNet,
				FD: ps.FD, Blocking: true})
		}
		panic("apache: bad state")
	}

	lookupFile := func() {
		ps.FileBytes = 0
		if s.cfg.ConnOf != nil && s.cfg.FileSize != nil {
			if conn := s.cfg.ConnOf(ps.FD); conn >= 0 {
				ps.FileBytes = s.cfg.FileSize(conn)
			}
		}
		if ps.FileBytes == 0 {
			ps.FileBytes = 2048
		}
	}
	resultFn := func(req sys.Request, result int) {
		switch {
		case req.Num == sys.SysAccept:
			if result < 0 {
				// EMFILE: the per-process descriptor limit refused the
				// accept. Loop back and retry; the connection stays queued.
				ps.St = stAccept
				return
			}
			ps.FD = result
			lookupFile()
		case req.Num == sys.SysRead && req.Resource == sys.ResNet:
			if result == 0 {
				// Peer closed (or the kernel's idle reaper tore the
				// connection down): skip serving and close our side. On a
				// perfect wire a request read never returns 0 — the
				// client's request rides the SYN — so this path only runs
				// under fault injection or keep-alive.
				ps.St = stCloseConn
				return
			}
			if !s.cfg.KeepAlive {
				return
			}
			// A fresh request arrived on the open connection.
			lookupFile()
		}
	}

	return &workload.ScriptProgram{
		ProgName: "apache",
		W:        w,
		NextFn:   next,
		ResultFn: resultFn,
		Slot:     slot,
		State:    ps,
	}
}

// Save writes the server's pool-level state to a checkpoint section.
func (s *Server) Save(e *checkpoint.Enc) {
	e.Int(int64(s.nextSlot))
	e.Uint(s.RequestsHandled)
}

// Load overwrites the server's pool-level state from a section written by
// Save.
func (s *Server) Load(d *checkpoint.Dec) {
	s.nextSlot = int(d.Int())
	s.RequestsHandled = d.Uint()
}

// NextSlot returns the highest process slot the pool has handed out; a
// restored thread naming a later slot belongs to another run.
func (s *Server) NextSlot() int { return s.nextSlot }

// kernelListenFD mirrors kernel.ListenFD without importing the kernel
// package (workload models must not depend on the OS implementation).
const kernelListenFD = 0
