package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// smallRun measures one workload at the tiny test interval.
func smallRun(t *testing.T, name string, trace bool) result {
	t.Helper()
	res, err := measure(config{workload: name, seed: 7, seconds: 1, trace: trace, small: true, dir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", name, trace, err)
	}
	if res.failed != 0 || res.attempted < minOps {
		t.Fatalf("%s trace=%v: %d of %d ops failed", name, trace, res.failed, res.attempted)
	}
	return res
}

// benchmarkMetrics reads the metric names BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for i, w := range b.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("BENCHMARK.json workload %d is %q, the benchmark runs %v", i, w.Name, workloadNames)
		}
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

func names(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func sameSet(t *testing.T, what string, got, want []string) {
	t.Helper()
	g := append([]string(nil), got...)
	w := append([]string(nil), want...)
	sort.Strings(g)
	sort.Strings(w)
	if len(g) != len(w) {
		t.Errorf("%s: emitted %v, BENCHMARK.json has %v", what, g, w)
		return
	}
	for i := range g {
		if g[i] != w[i] {
			t.Errorf("%s: emitted %v, BENCHMARK.json has %v", what, g, w)
			return
		}
	}
}

// TestWorkloads runs every workload at a tiny interval: two untraced runs
// and a traced one must produce the same simulated digest (tracing must
// not perturb the simulation), and the metrics each emits must be exactly
// the ones BENCHMARK.json declares.
func TestWorkloads(t *testing.T) {
	e2e, layer := benchmarkMetrics(t)
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			a := smallRun(t, name, false)
			b := smallRun(t, name, false)
			tr := smallRun(t, name, true)
			if a.digest != b.digest {
				t.Errorf("digest differs between runs: %s vs %s", a.digest, b.digest)
			}
			if tr.digest != a.digest {
				t.Errorf("traced digest %s differs from untraced %s", tr.digest, a.digest)
			}
			sameSet(t, "end-to-end metrics", names(a.metrics), e2e)
			sameSet(t, "per-layer metrics", names(tr.metrics), layer)
			for n, m := range a.metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
				}
			}
		})
	}
}

func TestOwner(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"repro/internal/pipeline.(*Engine).step", "main.main"}, "pipeline"},
		{[]string{"encoding/gob.(*Decoder).decodeStruct", "repro/internal/checkpoint.(*Image).Get", "repro/internal/core.(*Simulator).RestoreInto"}, "checkpoint"},
		{[]string{"repro/internal/stats.(*Hist).Merge", "repro/internal/report.Merge"}, "report"},
		{[]string{"repro/internal/workload/apache.(*Server).step", "repro/internal/kernel.(*Kernel).feed"}, "workload"},
		{[]string{"runtime.mallocgc", "repro/internal/kernel.(*Kernel).feed"}, ownerRT},
		{[]string{"internal/runtime/maps.h2", "runtime.mapaccess2_fast64", "repro/internal/kernel.(*Kernel).fill"}, ownerRT},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, ownerGC},
		{[]string{"sort.Ints", "main.run"}, ownerOther},
	} {
		if got := owner(c.stack); got != c.want {
			t.Errorf("owner(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
