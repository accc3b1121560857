package experiments

import (
	"slices"
	"sync"
	"testing"
)

// quick memoises Quick-scale, seed-1 results by experiment id so the shape
// tests and TestFidelity share one run of each experiment; the runs are
// deterministic, so a cached Result is the one a rerun would give.
var quick struct {
	sync.Mutex
	res map[string]Result
}

// quickValues returns the Values of each id at Quick scale, seed 1,
// running those not yet cached as the jobs of one Execute.
func quickValues(t *testing.T, ids ...string) map[string]map[string]float64 {
	t.Helper()
	quick.Lock()
	defer quick.Unlock()
	if quick.res == nil {
		quick.res = map[string]Result{}
	}
	var missing []string
	for _, id := range ids {
		if _, ok := quick.res[id]; !ok && !slices.Contains(missing, id) {
			missing = append(missing, id)
		}
	}
	if len(missing) > 0 {
		for _, res := range runAll(t, Quick, 1, missing...) {
			quick.res[res.ID] = res
		}
	}
	values := map[string]map[string]float64{}
	for _, id := range ids {
		values[id] = quick.res[id].Values
	}
	return values
}

// TestFidelity checks the paper's claims at Quick scale: every row of the
// fidelity table must give the verdict it expects. A plain row's paper
// predicate must hold; a known divergence's must still fail, so a change
// that closes a divergence has to flip its row on purpose.
func TestFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every fidelity experiment at Quick scale")
	}
	values := quickValues(t, fidelityIDs()...)
	for _, r := range fidelity {
		if verdict, ok := r.verdict(values[r.id]); !ok {
			measured, _ := r.check(values[r.id])
			t.Errorf("%s: %s: paper %s, measured %s: %s", r.id, r.metric, r.paper, measured, verdict)
		}
	}
}

// fidelityIDs returns the experiments the fidelity table reads, each once,
// in table order.
func fidelityIDs() []string {
	var ids []string
	for _, r := range fidelity {
		if !slices.Contains(ids, r.id) {
			ids = append(ids, r.id)
		}
	}
	return ids
}

// TestHeadlineShape asserts the paper's central result at Quick scale:
// SMT beats the superscalar on Apache by a large factor, and Apache is
// kernel-dominated.
func TestHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("headline shape needs Quick scale")
	}
	values := quickValues(t, "tab6", "fig5")
	v := values["tab6"]
	if v["apacheSMTIPC"] <= v["apacheSSIPC"]*2 {
		t.Fatalf("SMT/SS Apache ratio too small: %.2f vs %.2f", v["apacheSMTIPC"], v["apacheSSIPC"])
	}
	if v["specSMTIPC"] <= v["apacheSMTIPC"] {
		t.Fatalf("SPECInt should out-IPC Apache on SMT: %.2f vs %.2f", v["specSMTIPC"], v["apacheSMTIPC"])
	}
	if k := values["fig5"]["kernelPct"]; k < 50 {
		t.Fatalf("Apache kernel share %.1f%%, expected dominant", k)
	}
}

// TestOSImpactShape asserts Table 4's shape: adding the OS reduces IPC on
// both processors.
func TestOSImpactShape(t *testing.T) {
	if testing.Short() {
		t.Skip("needs Quick scale")
	}
	v := quickValues(t, "tab4")["tab4"]
	if !(v["ipcSMTApp"] > v["ipcSMTFull"]) {
		t.Fatalf("OS did not cost SMT anything: %.2f vs %.2f", v["ipcSMTApp"], v["ipcSMTFull"])
	}
	if !(v["ipcSSApp"] > v["ipcSSFull"]) {
		t.Fatalf("OS did not cost the superscalar: %.2f vs %.2f", v["ipcSSApp"], v["ipcSSFull"])
	}
	if !(v["ipcSMTFull"] > v["ipcSSFull"]*1.5) {
		t.Fatalf("SMT not clearly ahead on SPECInt: %.2f vs %.2f", v["ipcSMTFull"], v["ipcSSFull"])
	}
}
