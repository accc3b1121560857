package analysis_test

import (
	"os/exec"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.MapOrder, "maporder/a")
}

func TestWallTime(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.WallTime,
		"walltime/a",            // simulation package: flagged
		"walltime/dot",          // dot imports: flagged via the Ident fallback
		"walltime/internal/rng", // seed boundary: exempt
		"walltime/cmd/tool",     // entry point: exempt
	)
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.HotAlloc, "hotalloc/hot")
}

func TestCounterFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.CounterFlow, "counterflow/missing")
}

func TestSeedFlow(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.SeedFlow, "seedflow/sim")
}

func TestSnapshotComplete(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.SnapshotComplete,
		"snapshotcomplete/complete", // full coverage incl. helper methods
		"snapshotcomplete/missing",  // deliberately missing fields
		"snapshotcomplete/exempt",   // field- and type-level directives
		"snapshotcomplete/gob",      // whole-receiver encoder escape
		"snapshotcomplete/branch",   // fields touched only under a direction branch
	)
}

func TestNoGoroutine(t *testing.T) {
	analysistest.Run(t, "testdata", analysis.NoGoroutine,
		"nogoroutine/pipeline", // core package: flagged
		"nogoroutine/util",     // non-core package: allowed
	)
}

// TestRepoIsClean runs the full analyzer suite over this repository's
// internal/ tree, the same invocation as `make lint`. The simulator must stay
// diagnostic-free: a finding here means someone reintroduced the
// mem.ReleaseProcess bug class, dropped a Snapshot field, or added wall-clock
// or goroutine machinery to the core.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export over the whole module")
	}
	pkgs, err := analysis.Load("../..", []string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	diags := analysis.Run(pkgs, analysis.Analyzers())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic: %s", d)
	}
}

// TestHotAllocAgreesWithZeroAllocGate ties the static allocation gate to the
// dynamic one: hotalloc over the repository must be clean exactly when the
// runtime benchmark gate (pipeline's TestEngineStepZeroAlloc) passes. If the
// two ever disagree, either the analyzer has a hole (static clean, dynamic
// fails) or it over-approximates an idiom the hot path legitimately uses
// (static findings, dynamic passes).
func TestHotAllocAgreesWithZeroAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list -export and a child go test")
	}
	pkgs, err := analysis.Load("../..", []string{"./internal/..."})
	if err != nil {
		t.Fatalf("loading repository packages: %v", err)
	}
	diags := analysis.Run(pkgs, []*analysis.Analyzer{analysis.HotAlloc})
	staticClean := len(diags) == 0

	cmd := exec.Command("go", "test", "-count=1", "-run", "TestEngineStepZeroAlloc", "./internal/pipeline")
	cmd.Dir = "../.."
	out, runErr := cmd.CombinedOutput()
	dynamicClean := runErr == nil

	if staticClean != dynamicClean {
		for _, d := range diags {
			t.Logf("hotalloc: %s", d)
		}
		t.Fatalf("static and dynamic gates disagree: hotalloc clean=%v, TestEngineStepZeroAlloc pass=%v\n%s",
			staticClean, dynamicClean, out)
	}
}
