package specint

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/sys"
	"repro/internal/workload"
)

func TestSuiteHasEightBenchmarks(t *testing.T) {
	s := Suite()
	if len(s) != 8 {
		t.Fatalf("suite has %d benchmarks, want 8", len(s))
	}
	names := map[string]bool{}
	for _, a := range s {
		names[a.Name] = true
	}
	for _, want := range []string{"go", "m88ksim", "gcc", "compress", "li", "ijpeg", "perl", "vortex"} {
		if !names[want] {
			t.Fatalf("missing benchmark %s", want)
		}
	}
}

func TestStartupDoesFileReadsThenSteadyState(t *testing.T) {
	spec := Suite()[2] // gcc: 8 input reads
	p := New(spec, 1, 42)
	reads, opens, runs := 0, 0, uint64(0)
	sawSteady := false
	for i := 0; i < 500; i++ {
		s := p.Next()
		switch s.Kind {
		case workload.StepRun:
			runs += s.N
			if s.N == spec.SteadyBurst {
				sawSteady = true
			}
		case workload.StepSyscall:
			switch s.Req.Num {
			case sys.SysRead:
				if !sawSteady {
					reads++
				}
			case sys.SysOpen:
				opens++
			}
		}
		if sawSteady && runs > spec.StartupInsts+5*spec.SteadyBurst {
			break
		}
	}
	if reads < spec.InputReads {
		t.Fatalf("start-up performed %d reads, want >= %d", reads, spec.InputReads)
	}
	if opens == 0 {
		t.Fatal("input file never opened")
	}
	if !sawSteady {
		t.Fatal("program never reached steady state")
	}
}

func TestSteadyStateRareSyscalls(t *testing.T) {
	spec := Suite()[0]
	p := New(spec, 1, 7)
	// Fast-forward past start-up.
	for i := 0; i < 1000; i++ {
		if s := p.Next(); s.Kind == workload.StepRun && s.N == spec.SteadyBurst {
			break
		}
	}
	calls, bursts := 0, 0
	for i := 0; i < 100; i++ {
		s := p.Next()
		if s.Kind == workload.StepSyscall {
			calls++
		} else {
			bursts++
		}
	}
	if calls == 0 {
		t.Fatal("no steady-state syscalls at all")
	}
	if calls*3 > bursts {
		t.Fatalf("steady state too syscall-heavy: %d calls vs %d bursts", calls, bursts)
	}
}

func TestProgramsDistinctAddressSpaces(t *testing.T) {
	progs := Programs(1)
	if len(progs) != 8 {
		t.Fatalf("%d programs", len(progs))
	}
	bases := map[uint64]bool{}
	for _, p := range progs {
		var in isa.Inst
		p.Walker().NextInto(&in)
		bases[in.PC>>36] = true
	}
	if len(bases) != 8 {
		t.Fatalf("programs share text bases: %d distinct", len(bases))
	}
}

func TestMixRoughlyMatchesTable2(t *testing.T) {
	p := New(Suite()[1], 1, 5)
	w := p.Walker()
	counts := map[isa.Class]int{}
	n := 100_000
	for i := 0; i < n; i++ {
		var in isa.Inst
		w.NextInto(&in)
		counts[in.Class]++
	}
	loadPct := 100 * float64(counts[isa.Load]) / float64(n)
	storePct := 100 * float64(counts[isa.Store]) / float64(n)
	if loadPct < 10 || loadPct > 32 {
		t.Fatalf("load%% = %.1f", loadPct)
	}
	if storePct < 4 || storePct > 20 {
		t.Fatalf("store%% = %.1f", storePct)
	}
}

func TestDeterministicPrograms(t *testing.T) {
	a, b := New(Suite()[4], 2, 11), New(Suite()[4], 2, 11)
	for i := 0; i < 2000; i++ {
		var x isa.Inst
		a.Walker().NextInto(&x)
		var y isa.Inst
		b.Walker().NextInto(&y)
		if x != y {
			t.Fatalf("programs diverged at %d", i)
		}
	}
}
