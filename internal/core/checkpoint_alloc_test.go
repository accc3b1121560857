package core_test

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// TestCheckpointAllocBound bounds the bytes one Simulator.Checkpoint
// allocates against the section bytes it produces. The sections are
// written through one buffer that doubles when full, so a checkpoint
// allocates its sections, at most about four times its largest section in
// buffer growth, and a little scratch.
func TestCheckpointAllocBound(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	sim, err := core.New("apache", core.Options{Processor: core.SMT, Seed: 1, CyclesPer10ms: pinnedInterval})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(pinnedCycles)
	img, _ := sim.Checkpoint()
	var section uint64
	for _, name := range img.Names() {
		section += uint64(img.SectionLen(name))
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sim.Checkpoint()
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("%d section bytes, %d bytes allocated per checkpoint", section, per)
	if per > 5*section {
		t.Fatalf("a checkpoint allocates %d bytes for %d section bytes, want at most five times as many", per, section)
	}
}
