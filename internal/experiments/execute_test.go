package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// parallelScale is deliberately tiny: these tests compare parallel against
// serial execution, so every experiment runs twice.
var parallelScale = Scale{Warmup: 60_000, Measure: 90_000, Interval: 12_000}

// execute runs the plan and fails the test on a plan error.
func execute(t *testing.T, p Plan) []Outcome {
	t.Helper()
	out, err := Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestExecuteParallelMatchesSerial is the determinism referee for the
// worker pool: the full report rendered on 4 workers must be byte-identical
// to the serial rendering.
func TestExecuteParallelMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("renders the full report twice")
	}
	serial := Render(execute(t, Plan{Scale: parallelScale, Seed: 1, Seeds: 1, Workers: 1}))
	par := Render(execute(t, Plan{Scale: parallelScale, Seed: 1, Seeds: 1, Workers: 4}))
	if serial != par {
		i := 0
		for i < len(serial) && i < len(par) && serial[i] == par[i] {
			i++
		}
		lo, hi := i-80, i+80
		if lo < 0 {
			lo = 0
		}
		clip := func(s string) string {
			if hi < len(s) {
				return s[lo:hi]
			}
			return s[lo:]
		}
		t.Fatalf("parallel report diverges from serial at byte %d:\nserial: %q\nparallel: %q",
			i, clip(serial), clip(par))
	}
	if !strings.Contains(par, "################ ") {
		t.Fatalf("report looks empty: %q", par)
	}
}

// checkSameOutcomes compares two executions of one plan job by job.
func checkSameOutcomes(t *testing.T, serial, par []Outcome) {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%d serial outcomes vs %d parallel", len(serial), len(par))
	}
	for i, want := range serial {
		got := par[i]
		if want.Err != nil || got.Err != nil {
			t.Fatalf("job %s/%d: serial err %v, parallel err %v", want.ID, want.Seed, want.Err, got.Err)
		}
		if got.ID != want.ID || got.Seed != want.Seed {
			t.Fatalf("job %d is %s/%d in parallel, %s/%d serially", i, got.ID, got.Seed, want.ID, want.Seed)
		}
		if got.Res.Text != want.Res.Text {
			t.Errorf("job %s/%d: Text differs\nparallel: %q\nserial:   %q", want.ID, want.Seed, got.Res.Text, want.Res.Text)
		}
		if !reflect.DeepEqual(got.Res.Values, want.Res.Values) {
			t.Errorf("job %s/%d: Values differ\nparallel: %v\nserial:   %v", want.ID, want.Seed, got.Res.Values, want.Res.Values)
		}
		if got.Status != want.Status {
			t.Errorf("job %s/%d: RunStatus differs\nparallel: %+v\nserial:   %+v", want.ID, want.Seed, got.Status, want.Status)
		}
	}
}

// TestExecuteSeedsMatchSerial checks field-identical outcomes for a
// multi-seed plan — the shape the -seeds sweep dispatches.
func TestExecuteSeedsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each job twice")
	}
	p := Plan{IDs: []string{"ablation-fetch", "ablation-idle"}, Scale: parallelScale, Seed: 1, Seeds: 2}
	serial, par := p, p
	serial.Workers, par.Workers = 1, 4
	checkSameOutcomes(t, execute(t, serial), execute(t, par))
}

// TestExecuteSupervisedMatchesSerial checks the supervised pool (the -json
// and -timeout paths) against serial supervised execution.
func TestExecuteSupervisedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each supervised job twice")
	}
	p := Plan{IDs: []string{"ablation-fetch"}, Scale: parallelScale, Seed: 1, Seeds: 2, AuditEvery: 30_000}
	serial, par := p, p
	serial.Workers, par.Workers = 1, 4
	checkSameOutcomes(t, execute(t, serial), execute(t, par))
}

// TestWorkerPoolConcurrent stays enabled under -short so the `make race`
// leg exercises concurrent jobs through the pool on every run.
func TestWorkerPoolConcurrent(t *testing.T) {
	sc := Scale{Warmup: 20_000, Measure: 30_000, Interval: 8_000}
	p := Plan{IDs: []string{"ablation-fetch", "ablation-idle"}, Scale: sc, Seed: 1, Seeds: 2, Workers: 4}
	for _, o := range execute(t, p) {
		if o.Err != nil {
			t.Fatalf("job %s/%d: %v", o.ID, o.Seed, o.Err)
		}
		if o.Res.Text == "" || len(o.Res.Values) == 0 {
			t.Fatalf("job %s/%d: empty result %+v", o.ID, o.Seed, o.Res)
		}
	}
}

// TestRunJobsUnknownID confirms an unknown id in a multi-worker plan
// surfaces as a per-job error in position, not a panic or a dropped slot.
func TestRunJobsUnknownID(t *testing.T) {
	p := Plan{IDs: []string{"no-such-experiment"}, Scale: parallelScale, Seed: 1, Seeds: 1, Workers: 2}
	out := execute(t, p)
	if len(out) != 1 || out[0].Err == nil || out[0].ID != "no-such-experiment" {
		t.Fatalf("want one errored outcome in position, got %+v", out)
	}
}
