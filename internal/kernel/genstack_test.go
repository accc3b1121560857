package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/sys"
	"repro/internal/workload"
)

// testWalker returns a fresh walker over a small user region; equal seeds
// give walkers that emit identical streams.
func testWalker(seed uint64) *workload.Walker {
	return userProgram("gen", 1, seed, computeOnly(1)).W
}

// TestGenEntryLimit checks a bare entry and a mode-forced one: each emits
// exactly its count of the walker's instructions and then reports
// exhaustion, keeping its drawn-out walker attached (a checkpoint taken
// before the pop records "walker present, 0 left").
func TestGenEntryLimit(t *testing.T) {
	for _, wrap := range []uint8{wrapNone, wrapMode} {
		w := testWalker(1)
		ref := testWalker(1)
		g := genEntry{w: w, n: 10, wrap: wrap, mode: isa.PAL}
		var in isa.Inst
		n := 0
		for g.next(&in) {
			var want isa.Inst
			ref.NextInto(&want)
			if wrap == wrapMode {
				want.Mode = isa.PAL
			}
			if in != want {
				t.Fatalf("wrap %d: instruction %d is %+v, want %+v", wrap, n, in, want)
			}
			n++
		}
		if n != 10 {
			t.Fatalf("wrap %d: entry emitted %d, want 10", wrap, n)
		}
		if g.w != w || g.n != 0 {
			t.Fatalf("wrap %d: exhausted entry holds walker %p with %d left, want %p with 0", wrap, g.w, g.n, w)
		}
	}
}

// TestGenEntryTailAndStack checks a tail (walker instructions, then its
// inline tail instruction, once; it drops the walker only on the call that
// moves on to the tail) and a context's stack (entries drain top first,
// then the idle context has nothing to run).
func TestGenEntryTailAndStack(t *testing.T) {
	ret := isa.Inst{Class: isa.PALReturn, Mode: isa.PAL}
	g := genEntry{w: testWalker(1), n: 5, wrap: wrapTail, tail: ret}
	var in isa.Inst
	n := 0
	for g.next(&in) {
		n++
		if n == 5 && g.w == nil {
			t.Fatal("tail dropped its walker on its last walker instruction")
		}
	}
	if n != 6 || in.Class != isa.PALReturn {
		t.Fatalf("tail: n=%d last=%v", n, in.Class)
	}
	if g.w != nil {
		t.Fatal("tail kept its walker after emitting its tail instruction")
	}
	if g.pos != 1 || g.next(&in) {
		t.Fatalf("emitted tail at position %d generates again", g.pos)
	}

	cfg := DefaultConfig()
	cfg.Contexts = 1
	cfg.IdleSpin = false
	k := New(cfg)
	f := &k.feeds[0]
	f.push(genEntry{w: testWalker(2), n: 4, tmpl: pipeline.FedInst{TID: 2}})
	f.push(genEntry{w: testWalker(1), n: 3, tmpl: pipeline.FedInst{TID: 1}})
	for k.fill(0) {
	}
	if len(f.buf) != 7 {
		t.Fatalf("stack emitted %d, want 7", len(f.buf))
	}
	for i := range f.buf {
		want := uint32(1)
		if i >= 3 {
			want = 2
		}
		if f.buf[i].TID != want {
			t.Fatalf("instruction %d carries TID %d, want %d", i, f.buf[i].TID, want)
		}
	}
}

// TestDrainRegion checks the trap handlers' drain: exactly n instructions,
// each stamped with the template and forced to the mode.
func TestDrainRegion(t *testing.T) {
	k := New(DefaultConfig())
	tmpl := kthreadTmpl(7, sys.CatDTLB)
	out := drainRegion(nil, k.code.vm, 0, 50, tmpl, isa.PAL)
	if len(out) != 50 {
		t.Fatalf("drain got %d, want 50", len(out))
	}
	for i := range out {
		if out[i].Mode != isa.PAL || out[i].TID != 7 || out[i].Cat != sys.CatDTLB {
			t.Fatalf("instruction %d: mode %v TID %d cat %v", i, out[i].Mode, out[i].TID, out[i].Cat)
		}
	}
	if out = drainRegion(out[:0], k.code.vm, 0, 5, tmpl, isa.Kernel); len(out) != 5 {
		t.Fatalf("short drain got %d, want 5", len(out))
	}
}

// TestRetiredInPlaceMatchesCopy drives two kernels with the same seed
// through Span and Retired, reading far ahead the way fetch does. One hands
// Retired a pointer into the span, the other a copy. Retired may advance
// and compact the buffer under an aliasing pointer, so it must read the
// instruction first; then both kernels end in byte-identical states.
func TestRetiredInPlaceMatchesCopy(t *testing.T) {
	const ahead = 3000
	run := func(inPlace bool) []byte {
		cfg := DefaultConfig()
		cfg.Contexts = 1
		cfg.CyclesPer10ms = 1 << 40 // no interrupts
		pcfg := pipeline.SMTConfig()
		pcfg.Contexts = 1
		k, _ := sim(t, cfg, pcfg)
		syscalls := func(exitAt int) func(int) workload.Step {
			return func(call int) workload.Step {
				switch {
				case call == exitAt:
					return workload.Step{Kind: workload.StepExit}
				case call%2 == 1:
					return workload.Step{Kind: workload.StepRun, N: uint64(1500 + 97*call)}
				}
				return workload.Step{Kind: workload.StepSyscall, Req: sys.Request{Num: sys.SysGetpid}}
			}
		}
		k.AddProgram(userProgram("a", 1, 41, syscalls(9)))
		k.AddProgram(userProgram("b", 2, 42, syscalls(-1)))
		f := &k.feeds[0]
		compactions := 0
		for idx := uint64(0); idx < 60_000; idx++ {
			k.Span(0, idx+ahead) // stops short at a syscall pause
			span := k.Span(0, idx)
			if len(span) == 0 {
				t.Fatalf("context starved at instruction %d", idx)
			}
			head := f.head
			if inPlace {
				k.Retired(0, idx, &span[0])
			} else {
				in := span[0]
				k.Retired(0, idx, &in)
			}
			if f.head == 0 && len(f.buf) > 0 && head >= 1023 {
				compactions++
			}
		}
		if k.SyscallCount[sys.SysGetpid] == 0 || k.SyscallCount[sys.SysExit] != 1 || compactions == 0 {
			t.Fatalf("run covers %d getpids, %d exits, %d compactions; want some, 1, some",
				k.SyscallCount[sys.SysGetpid], k.SyscallCount[sys.SysExit], compactions)
		}
		var e checkpoint.Codec
		k.Sync(&e, nil)
		return e.Bytes()
	}
	if !bytes.Equal(run(true), run(false)) {
		t.Fatal("kernel state differs when Retired reads the instruction in place")
	}
}

// tailSection writes a tail entry with the given instruction count and
// position by hand, so damaged entries can be built: syncGen refuses to
// write them.
func tailSection(count, pos int) []byte {
	var e checkpoint.Codec
	var g genEntry
	g.tmpl.Sync(&e)
	syncAction(&e, &g.done)
	wrap := wrapTail
	checkpoint.U(&e, &wrap)
	checkpoint.U(&e, &count)
	for i := 0; i < count; i++ {
		tailInst.Sync(&e)
	}
	checkpoint.I(&e, &pos)
	hasWalker := false
	e.Bool(&hasWalker)
	return e.Bytes()
}

var tailInst = isa.Inst{Class: isa.PALReturn, Mode: isa.PAL, PC: 0x40}

// TestLoadGenRejectsTailPositionOutsideExtra round-trips a tail entry
// through syncGen, and refuses a damaged one whose position lies outside
// its one tail instruction (the next generation would emit it again or
// never).
func TestLoadGenRejectsTailPositionOutsideExtra(t *testing.T) {
	k := New(DefaultConfig())
	for _, pos := range []int{-1, 0, 1, 2} {
		d := checkpoint.NewReader("kernel", tailSection(1, pos))
		var g genEntry
		k.syncGen(&d, &g, walkerRefs{})
		err := d.Finish()
		if valid := pos == 0 || pos == 1; valid != (err == nil) {
			t.Fatalf("tail position %d over 1 instruction: load error %v", pos, err)
		}
		if err == nil && (g.pos != pos || g.tail != tailInst || g.w != nil) {
			t.Fatalf("tail position %d round-tripped as %+v", pos, g)
		}
	}
}

// TestGenEntryTailCount pins the tail's checkpoint encoding: an
// instruction count (always 1), the instruction, then the position. A
// section claiming any other count is a *FormatError: the entry holds its
// tail inline and has room for exactly one.
func TestGenEntryTailCount(t *testing.T) {
	k := New(DefaultConfig())
	g := genEntry{wrap: wrapTail, tail: tailInst}
	var want checkpoint.Codec
	k.syncGen(&want, &g, walkerRefs{})
	for _, count := range []int{0, 1, 2, 3} {
		b := tailSection(count, 0)
		if count == 1 && !bytes.Equal(b, want.Bytes()) {
			t.Fatalf("syncGen wrote %x, want count, instruction, position: %x", want.Bytes(), b)
		}
		d := checkpoint.NewReader("kernel", b)
		var got genEntry
		k.syncGen(&d, &got, walkerRefs{})
		err := d.Finish()
		var fe *checkpoint.FormatError
		if count == 1 {
			if err != nil {
				t.Fatalf("one-instruction tail: %v", err)
			}
		} else if !errors.As(err, &fe) || !strings.Contains(fe.Reason, fmt.Sprintf("tail of %d instructions", count)) {
			t.Fatalf("tail of %d instructions: load error %v, want a *checkpoint.FormatError naming the count", count, err)
		}
	}
}
