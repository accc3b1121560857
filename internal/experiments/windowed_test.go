package experiments

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// winScale keeps the windowed tests fast: 16 windows of ~1.6k detail cycles.
var winScale = func() Scale {
	sc := Scale{Warmup: 100_000, Measure: 150_000, Interval: 40_000}
	sc.Sampling = WindowedSampling(sc)
	return sc
}()

func renderBoth(t *testing.T, wr *WindowRunner) (fig1, fig5 string) {
	t.Helper()
	r1, err := runOne("fig1", winScale, 1, wr)
	if err != nil {
		t.Fatalf("fig1: %v", err)
	}
	r5, err := runOne("fig5", winScale, 1, wr)
	if err != nil {
		t.Fatalf("fig5: %v", err)
	}
	return r1.Text, r5.Text
}

// TestWindowedByteIdentity regenerates Figure 1 (SPECInt) and Figure 5
// (Apache) from a checkpoint library under different worker counts and
// library temperatures. Every variant must be byte-identical: window merge
// order is fixed by the library, not by scheduling.
func TestWindowedByteIdentity(t *testing.T) {
	dir := t.TempDir()

	// Cold pass builds the library as a side effect.
	cold := NewWindowRunner(WindowedConfig{Dir: dir, Workers: 1})
	fig1Cold, fig5Cold := renderBoth(t, cold)

	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		wr := NewWindowRunner(WindowedConfig{Dir: dir, Workers: workers})
		fig1, fig5 := renderBoth(t, wr)
		if fig1 != fig1Cold {
			t.Errorf("fig1 with %d workers (warm library) differs from cold single-worker output", workers)
		}
		if fig5 != fig5Cold {
			t.Errorf("fig5 with %d workers (warm library) differs from cold single-worker output", workers)
		}
	}
}

// TestWindowedStaleLibrary checks that a window image refuses to restore
// under the wrong configuration fingerprint with a structured *FormatError,
// and that the mismatch triggers a rebuild (not reuse) through the runner.
func TestWindowedStaleLibrary(t *testing.T) {
	dir := t.TempDir()
	o := core.Options{Seed: 1, CyclesPer10ms: winScale.Interval, Sampling: winScale.Sampling}
	span := winScale.Warmup + winScale.Measure
	fp := core.Fingerprint("specint", o, span)
	if _, err := BuildLibrary(filepath.Join(dir, fp), "specint", o, span); err != nil {
		t.Fatalf("BuildLibrary: %v", err)
	}

	_, err := RunWindowJobs(filepath.Join(dir, fp), []int{0}, "0000deadbeef0000")
	if err == nil {
		t.Fatal("RunWindowJobs with wrong fingerprint succeeded, want *checkpoint.FormatError")
	}
	var ferr *checkpoint.FormatError
	if !errors.As(err, &ferr) {
		t.Fatalf("RunWindowJobs error is %T (%v), want *checkpoint.FormatError", err, err)
	}

	// The right fingerprint restores fine.
	if _, err := RunWindowJobs(filepath.Join(dir, fp), []int{0}, fp); err != nil {
		t.Fatalf("RunWindowJobs with matching fingerprint: %v", err)
	}
}

// TestWindowedMidWindowAudit restores a library window, runs partway into
// its detail window, and audits: a mid-window machine state reconstructed
// from disk must satisfy every kernel/engine invariant.
func TestWindowedMidWindowAudit(t *testing.T) {
	dir := t.TempDir()
	o := core.Options{Seed: 1, CyclesPer10ms: winScale.Interval, Sampling: winScale.Sampling}
	span := winScale.Warmup + winScale.Measure
	fp := core.Fingerprint("specint", o, span)
	idx, err := BuildLibrary(filepath.Join(dir, fp), "specint", o, span)
	if err != nil {
		t.Fatalf("BuildLibrary: %v", err)
	}
	if len(idx.Windows) < 4 {
		t.Fatalf("library has %d windows, want at least 4", len(idx.Windows))
	}

	img, err := checkpoint.ReadFile(checkpoint.LibraryWindowPath(filepath.Join(dir, fp), 3))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sim, err := core.Restore(img)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	sim.Engine.SetSampleLibraryBuild(false)
	if err := sim.Audit(); err != nil {
		t.Fatalf("audit immediately after restore: %v", err)
	}
	warmup, detail := sim.Engine.SampleWindow()
	sim.Run(warmup + detail/2)
	if err := sim.Audit(); err != nil {
		t.Fatalf("audit mid detail window: %v", err)
	}
}

// TestWindowedRequiresSampling pins the error paths: windowed regeneration
// and library builds both need an enabled sampling configuration.
func TestWindowedRequiresSampling(t *testing.T) {
	sc := Scale{Warmup: 100_000, Measure: 150_000, Interval: 40_000}
	wr := NewWindowRunner(WindowedConfig{Dir: t.TempDir(), Workers: 1})
	if _, err := runOne("fig1", sc, 1, wr); err == nil {
		t.Fatal("windowed regeneration without sampling succeeded, want error")
	}
	o := core.Options{Seed: 1, CyclesPer10ms: sc.Interval}
	if _, err := BuildLibrary(t.TempDir(), "specint", o, 250_000); err == nil {
		t.Fatal("BuildLibrary without sampling succeeded, want error")
	}
}
