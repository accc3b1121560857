package workload_test

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/rng"
	"repro/internal/workload"
)

// saved returns w's section as Save writes it.
func saved(w *workload.Walker) []byte {
	var e checkpoint.Codec
	w.Sync(&e)
	return e.Bytes()
}

// denseRegion is a tiny hand-built region where most slots count: three
// nested loop branches and a rotating indirect jump out of five slots. In
// the outer loop's second pass all three loop counters are nonzero, so the
// loop column has more nonzero values than zeros and is written dense.
func denseRegion() *workload.Region {
	return &workload.Region{
		Name: "dense", Base: 0x1000, Mode: isa.User,
		Slots: []workload.Slot{
			{Kind: isa.CondBranch, Target: 0, Trips: 3},
			{Kind: isa.CondBranch, Target: 0, Trips: 4},
			{Kind: isa.CondBranch, Target: 0, Trips: 5},
			{Kind: isa.IndirectJump, Target: 0, NumTargets: 2},
			{Kind: isa.IntALU},
		},
	}
}

// TestWalkerSectionMatchesDense checks that the compact counters save the
// bytes the dense per-slot arrays did: for every kernel-code and Apache
// walker of a simulator after a run, and at every step of a tiny region
// whose loop column takes the dense form.
func TestWalkerSectionMatchesDense(t *testing.T) {
	sim := core.NewApache(core.Options{Seed: 1, CyclesPer10ms: 20_000})
	sim.Run(600_000)
	kernel := sim.Kernel.CodeWalkers()
	walkers := kernel
	for _, p := range sim.Programs {
		walkers = append(walkers, p.W)
	}
	var counting [2]int // kernel, Apache walkers holding a nonzero counter
	for i, w := range walkers {
		loops, visits := workload.DenseCounters(w)
		if want := workload.DenseSection(w, loops, visits); !bytes.Equal(saved(w), want) {
			t.Fatalf("walker %d over %s: Save wrote %d bytes unlike the dense reference's %d", i, w.Reg.Name, len(saved(w)), len(want))
		}
		for s := range loops {
			if loops[s] != 0 || visits[s] != 0 {
				counting[min(i/len(kernel), 1)]++
				break
			}
		}
	}
	if counting[0] == 0 || counting[1] == 0 {
		t.Fatalf("nonzero counters in %d kernel and %d Apache walkers; the comparison needs both", counting[0], counting[1])
	}

	reg := denseRegion()
	w := workload.NewWalker(reg, rng.New(1))
	denseSteps := 0
	for step := 0; step < 200; step++ {
		loops, visits := workload.DenseCounters(w)
		if want := workload.DenseSection(w, loops, visits); !bytes.Equal(saved(w), want) {
			t.Fatalf("step %d: Save wrote %x, want %x", step, saved(w), want)
		}
		nonzero := 0
		for _, v := range loops {
			if v != 0 {
				nonzero++
			}
		}
		if 2*nonzero > len(loops) {
			denseSteps++
		}
		w.NextInto(&isa.Inst{})
	}
	if denseSteps == 0 {
		t.Fatal("the loop column never took the dense form")
	}
}

// TestWalkerLoadRejectsMisplacedCounter damages a walker section so a
// nonzero counter lands on a slot with no counter of its column's kind: a
// loop counter on an indirect jump or an ALU slot, a visit counter on a
// loop branch. Load must fail with a *checkpoint.FormatError; the
// undamaged section loads.
func TestWalkerLoadRejectsMisplacedCounter(t *testing.T) {
	reg := denseRegion()
	w := workload.NewWalker(reg, rng.New(1))
	for i := 0; i < 9; i++ {
		w.NextInto(&isa.Inst{})
	}
	load := func(section []byte) error {
		d := checkpoint.NewReader("walker", section)
		workload.NewWalker(reg, rng.New(2)).Sync(&d)
		return d.Finish()
	}
	loops, visits := workload.DenseCounters(w)
	if err := load(workload.DenseSection(w, loops, visits)); err != nil {
		t.Fatalf("undamaged section: %v", err)
	}
	for _, c := range []struct {
		name  string
		loop  bool
		slot  int
		value int32
	}{
		{"loop counter on an indirect jump", true, 3, 3},
		{"loop counter on an ALU slot", true, 4, 1},
		{"visit counter on a loop branch", false, 0, 4},
		{"visit counter on an ALU slot", false, 4, -1},
	} {
		loops, visits := workload.DenseCounters(w)
		if c.loop {
			loops[c.slot] = c.value
		} else {
			visits[c.slot] = c.value
		}
		var fe *checkpoint.FormatError
		if err := load(workload.DenseSection(w, loops, visits)); !errors.As(err, &fe) {
			t.Fatalf("%s: load error %v, want a *checkpoint.FormatError", c.name, err)
		}
	}
}

// TestSlotSize keeps the slot the walker reads per instruction within 40
// bytes (the counter ordinal fits in the padding of the old layout).
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(workload.Slot{}); n > 40 {
		t.Fatalf("workload.Slot is %d bytes, want at most 40", n)
	}
}
