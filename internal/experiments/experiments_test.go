package experiments

import (
	"runtime"
	"strings"
	"testing"
)

// tiny is a minimal scale for smoke tests; shape assertions use Quick.
var tiny = Scale{Warmup: 250_000, Measure: 350_000, Interval: 80_000}

// runAll runs the ids as the jobs of one Execute on every available core,
// failing the test if any cannot run.
func runAll(t *testing.T, sc Scale, seed uint64, ids ...string) []Result {
	t.Helper()
	out := execute(t, Plan{IDs: ids, Scale: sc, Seed: seed, Seeds: 1, Workers: runtime.GOMAXPROCS(0)})
	res := make([]Result, len(out))
	for i, o := range out {
		if o.Err != nil {
			t.Fatal(o.Err)
		}
		res[i] = o.Res
	}
	return res
}

// runTwice runs two identical jobs of one experiment side by side and fails
// the test unless they render byte-identical text.
func runTwice(t *testing.T, id string, sc Scale, seed uint64) Result {
	t.Helper()
	res := runAll(t, sc, seed, id, id)
	if res[0].Text != res[1].Text {
		t.Fatalf("%s nondeterministic across identical runs", id)
	}
	return res[0]
}

// runOne regenerates one experiment through Execute, serially and
// unsupervised; a non-nil wr regenerates it from checkpoint-library windows.
func runOne(id string, sc Scale, seed uint64, wr *WindowRunner) (Result, error) {
	out, err := Execute(Plan{IDs: []string{id}, Scale: sc, Seed: seed, Seeds: 1, Workers: 1, Library: wr})
	if err != nil {
		return Result{}, err
	}
	return out[0].Res, out[0].Err
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "tab8", "tab9",
		"ablation-fetch", "ablation-contexts", "ablation-idle",
		"ablation-interrupt", "ablation-procs", "ablation-dma",
		"ablation-affinity", "ablation-keepalive", "ablation-diskbound",
		"ablation-loss", "ablation-crash", "ablation-sampling",
		"ablation-overload", "ablation-exhaustion", "ablation-scale",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("experiment %s not registered", id)
		}
	}
}

// TestUnknownID confirms an unknown id surfaces as an error in its job's
// outcome slot, not a panic or a dropped slot.
func TestUnknownID(t *testing.T) {
	if _, err := runOne("nope", tiny, 1, nil); err == nil {
		t.Fatal("unknown id did not error")
	}
}

// TestEverySPECIntExperimentRenders smoke-runs the cheap (SPECInt-only)
// experiments at tiny scale and checks they produce text and values.
func TestEverySPECIntExperimentRenders(t *testing.T) {
	for _, res := range runAll(t, tiny, 1, "fig1", "fig3", "fig4", "tab2", "tab3") {
		if len(res.Text) < 50 || !strings.Contains(res.Text, "Paper reference") || len(res.Values) == 0 {
			t.Fatalf("%s produced thin output (values %v):\n%s", res.ID, res.Values, res.Text)
		}
	}
}

func TestApacheExperimentsRender(t *testing.T) {
	for _, res := range runAll(t, tiny, 1, "fig5", "fig7", "tab5") {
		if len(res.Text) < 50 {
			t.Fatalf("%s produced thin output", res.ID)
		}
	}
}

func TestDeterministicExperiments(t *testing.T) {
	runTwice(t, "fig3", tiny, 5)
}

// TestExperimentsProduceStableKeys pins key-value names that -json and
// -seeds output and the docs rely on.
func TestExperimentsProduceStableKeys(t *testing.T) {
	wantKeys := [][]string{{"startupKernelPct", "steadyKernelPct"}, {"startupAllocPct"}, {"steadyKernelPhysLoadPct", "steadyUserLoadPct"}}
	for i, res := range runAll(t, tiny, 2, "fig1", "fig3", "tab2") {
		for _, k := range wantKeys[i] {
			if _, ok := res.Values[k]; !ok {
				t.Fatalf("%s missing key %q (has %v)", res.ID, k, res.Values)
			}
		}
	}
}

// TestSamplingAblationWithinBand asserts the sampled-mode validation at
// Quick scale: both headline metrics (Fig 1 steady kernel share, Fig 5
// kernel share) must land inside the experiment's stated error band.
func TestSamplingAblationWithinBand(t *testing.T) {
	if testing.Short() {
		t.Skip("full-detail replay of the sampled instruction region is slow")
	}
	res, err := runOne("ablation-sampling", Quick, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range []string{"specint", "apache"} {
		if res.Values[wl+"Within"] != 1 {
			t.Errorf("%s: sampled %.2f vs full %.2f — err %.2f outside band %.2f",
				wl, res.Values[wl+"SampledKernelPct"], res.Values[wl+"FullKernelPct"],
				res.Values[wl+"Err"], res.Values[wl+"Band"])
		}
	}
}

// TestFaultAblationsRender smoke-runs the fault-injection ablations at tiny
// scale: both must render via the registry, and the faulted rows must show
// recovery activity at tiny scale too.
func TestFaultAblationsRender(t *testing.T) {
	if testing.Short() {
		t.Skip("several multi-hundred-kilocycle simulations")
	}
	for _, res := range runAll(t, tiny, 1, "ablation-loss", "ablation-crash") {
		if len(res.Text) < 50 || len(res.Values) == 0 {
			t.Fatalf("%s produced thin output:\n%s", res.ID, res.Text)
		}
	}
}

// TestOverloadAblationShape asserts graceful degradation at Quick scale:
// pushing offered load to 10x of the capacity point must keep completed
// throughput within 80% of the sweep's peak on both processors (shedding,
// not collapse), must actually exercise the shedding machinery, and must
// never trip the watchdog. Identical seeds must reproduce the table
// byte-for-byte.
func TestOverloadAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("ten supervised simulations at Quick scale")
	}
	res := runTwice(t, "ablation-overload", Quick, 1)
	v := res.Values
	if v["watchdogTrips"] != 0 {
		t.Fatalf("watchdog tripped %v time(s) during the sweep:\n%s", v["watchdogTrips"], res.Text)
	}
	for _, tag := range []string{"smt", "ss"} {
		peak, last := v[tag+"Peak"], v[tag+"Done10x"]
		if peak <= 0 {
			t.Fatalf("%s: no completed requests anywhere in the sweep:\n%s", tag, res.Text)
		}
		if last < 0.8*peak {
			t.Fatalf("%s: throughput collapsed under overload: done@10x %.0f < 80%% of peak %.0f\n%s",
				tag, last, peak, res.Text)
		}
	}
}

// TestExhaustionAblationShape asserts graceful degradation under resource
// exhaustion at Quick scale: capping memory at 0.75x of measured demand must
// keep completed throughput at >= 50% of the unconstrained baseline on both
// processors, the capped rows must actually exercise the exhaustion
// machinery (reclaims or structured rejects), the watchdog must never trip,
// and identical seeds must reproduce the table byte-for-byte.
func TestExhaustionAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("a dozen supervised simulations at Quick scale")
	}
	res := runTwice(t, "ablation-exhaustion", Quick, 1)
	v := res.Values
	if v["watchdogTrips"] != 0 {
		t.Fatalf("watchdog tripped %v time(s) during the sweep:\n%s", v["watchdogTrips"], res.Text)
	}
	for _, tag := range []string{"smt", "ss"} {
		base := v[tag+"Base"]
		if base <= 0 {
			t.Fatalf("%s: unconstrained baseline completed nothing:\n%s", tag, res.Text)
		}
		if done := v[tag+"Done075"]; done < 0.5*base {
			t.Fatalf("%s: throughput collapsed at 0.75x demand: %.0f < 50%% of baseline %.0f\n%s",
				tag, done, base, res.Text)
		}
		if v[tag+"Reclaims050"]+v[tag+"Rejects050"] == 0 {
			t.Fatalf("%s: 0.5x-demand row never exercised reclaim or admission control:\n%s", tag, res.Text)
		}
	}
}

// TestScaleAblationShape is the million-client acceptance test: the
// 10^3..10^6 sweep must complete under RunChecked without a watchdog trip,
// every row (including the million-client one) must finish real requests,
// and — since the arrival wave is identical in every row — completed
// throughput must not degrade as the dormant population grows 1000x.
// Identical seeds must reproduce the table byte-for-byte.
func TestScaleAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a million-client fleet at Quick scale")
	}
	res := runTwice(t, "ablation-scale", Quick, 1)
	v := res.Values
	if v["watchdogTrips"] != 0 {
		t.Fatalf("watchdog tripped %v time(s) during the sweep:\n%s", v["watchdogTrips"], res.Text)
	}
	for _, row := range []string{"1k", "10k", "100k", "1m"} {
		if v["done"+row] <= 0 {
			t.Fatalf("%s-client row completed nothing:\n%s", row, res.Text)
		}
	}
	if r := v["done1mOver1k"]; r < 0.5 {
		t.Fatalf("throughput degraded with dormant population: 1m/1k ratio %.2f\n%s", r, res.Text)
	}
}
