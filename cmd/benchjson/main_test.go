package main

import "testing"

func TestMedians(t *testing.T) {
	for _, tc := range []struct {
		ns   []string
		want float64
	}{
		{[]string{"100"}, 100},
		{[]string{"300", "100", "900"}, 300},
		{[]string{"100", "400", "200", "900"}, 300},
	} {
		var lines []record
		for _, ns := range tc.ns {
			r, ok := parseBench("BenchmarkX-2 1 "+ns+" ns/op", "p")
			if !ok {
				t.Fatalf("parseBench rejected %q", ns)
			}
			lines = append(lines, r, record{Name: "BenchmarkY-2", Pkg: "p", Iterations: 1, Metrics: map[string]float64{"ns/op": 1}})
		}
		got := medians(lines)
		if len(got) != 2 || got[0].Name != "BenchmarkX-2" || got[1].Name != "BenchmarkY-2" {
			t.Fatalf("%v: got records %+v, want X then Y", tc.ns, got)
		}
		if x := got[0]; x.Metrics["ns/op"] != tc.want || x.Runs != len(tc.ns) || x.Iterations != int64(len(tc.ns)) {
			t.Errorf("%v: got ns/op %v, %d runs, %d iterations; want %v, %d, %d", tc.ns, x.Metrics["ns/op"], x.Runs, x.Iterations, tc.want, len(tc.ns), len(tc.ns))
		}
	}
}

// doc is an artifact with one benchmark per name.
func doc(benches map[string]map[string]float64) document {
	var d document
	for name, m := range benches {
		d.Benchmarks = append(d.Benchmarks, record{Name: name, Pkg: "p", Iterations: 1, Metrics: m})
	}
	return d
}

func TestDiffRules(t *testing.T) {
	type m = map[string]map[string]float64
	for _, tc := range []struct {
		name     string
		old, new m
		code     int
	}{
		{"ns/op within threshold", m{"B": {"ns/op": 2e6}}, m{"B": {"ns/op": 2.5e6}}, 0},
		{"ns/op regression", m{"B": {"ns/op": 2e6}}, m{"B": {"ns/op": 3e6}}, 1},
		{"ns/op below floor", m{"B": {"ns/op": 1e5}}, m{"B": {"ns/op": 9e5}}, 0},
		{"figureRegenSec regression", m{"B": {"figureRegenSec": 5}}, m{"B": {"figureRegenSec": 7}}, 1},
		{"figureRegenSec below floor", m{"B": {"figureRegenSec": 0.01}}, m{"B": {"figureRegenSec": 0.04}}, 0},
		{"netTickNs regression", m{"B": {"netTickNs": 3e5}}, m{"B": {"netTickNs": 5e5}}, 1},
		{"netTickNs below floor", m{"B": {"netTickNs": 1e5}}, m{"B": {"netTickNs": 1.9e5}}, 0},
		{"ungated metric", m{"B": {"allocs/op": 1}}, m{"B": {"allocs/op": 100}}, 0},
		{"improvement", m{"B": {"ns/op": 3e6}}, m{"B": {"ns/op": 1e6}}, 0},
		{"new and removed", m{"Old": {"ns/op": 2e6}, "B": {"ns/op": 2e6}}, m{"New": {"ns/op": 9e9}, "B": {"ns/op": 2e6}}, 0},
		{"no shared benchmark", m{"B-2": {"ns/op": 2e6}}, m{"B-4": {"ns/op": 2e6}}, 1},
	} {
		if code := diffArtifacts(doc(tc.old), doc(tc.new), 30); code != tc.code {
			t.Errorf("%s: exit %d, want %d", tc.name, code, tc.code)
		}
	}
}

// TestDiffCommittedArtifact diffs the committed single-run artifact: against
// itself it passes, and a 50% slowdown of one gated benchmark fails.
func TestDiffCommittedArtifact(t *testing.T) {
	old, err := loadArtifact("../../BENCH_2026-08-08.json")
	if err != nil {
		t.Fatal(err)
	}
	slower, _ := loadArtifact("../../BENCH_2026-08-08.json")
	slower.Benchmarks[0].Metrics["ns/op"] *= 1.5
	if code := diffArtifacts(old, old, 30); code != 0 {
		t.Fatalf("self-diff exit %d, want 0", code)
	}
	if code := diffArtifacts(old, slower, 30); code != 1 {
		t.Fatalf("slowed artifact exit %d, want 1", code)
	}
}
