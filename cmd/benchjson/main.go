// Command benchjson converts `go test -bench` text output (read from
// stdin) into a stable JSON document, so `make bench` can record a
// BENCH_<date>.json trajectory artifact that future performance work can
// diff against.
//
//	go test -run '^$' -bench . -benchtime 1x -count 5 ./... | benchjson > BENCH_2026-08-06.json
//
// Every benchmark becomes one record carrying all reported metrics
// (ns/op, allocs/op, and custom ones like simcycles/s); a benchmark
// repeated by -count gets the median of its lines for every metric. The
// converter is a pure function of its input: identical bench output yields
// identical bytes, so artifact diffs show performance changes only.
//
// With -diff it instead compares two artifacts:
//
//	benchjson -diff BENCH_old.json BENCH_new.json
//
// printing the per-benchmark delta of every metric and exiting 1 if a
// metric gated by the rules table regressed by more than -threshold
// percent (default 10). Benchmarks present on only one side are reported
// but never fail the diff; two artifacts that share no benchmark at all
// (say, recorded at different -cpu settings, which suffix every name) fail
// it, because nothing was compared.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// record is one benchmark result.
type record struct {
	// Name is the benchmark name with the -GOMAXPROCS suffix kept, since
	// parallelism is part of the measurement's identity.
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in.
	Pkg string `json:"pkg"`
	// Iterations is b.N, summed over the runs.
	Iterations int64 `json:"iterations"`
	// Runs is the number of lines (-count) the metrics are the median of;
	// artifacts recorded before medians leave it out.
	Runs int `json:"runs,omitempty"`
	// Metrics maps unit -> value for every "value unit" pair on the line.
	Metrics map[string]float64 `json:"metrics"`
}

// document is the whole artifact.
type document struct {
	Date       string   `json:"date,omitempty"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	date := flag.String("date", "", "date stamp recorded in the artifact (the caller supplies it so the converter itself stays deterministic)")
	diff := flag.Bool("diff", false, "compare two artifacts: benchjson -diff old.json new.json")
	threshold := flag.Float64("threshold", 10, "with -diff, exit 1 if a gated metric regresses by more than this percent")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -diff old.json new.json")
			os.Exit(2)
		}
		oldDoc, oldErr := loadArtifact(flag.Arg(0))
		newDoc, newErr := loadArtifact(flag.Arg(1))
		if err := errors.Join(oldErr, newErr); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		os.Exit(diffArtifacts(oldDoc, newDoc, *threshold))
	}

	doc := document{Date: *date}
	var pkg string
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			doc.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line, pkg); ok {
				doc.Benchmarks = append(doc.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	doc.Benchmarks = medians(doc.Benchmarks)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// medians folds the repeated lines (-count) of each benchmark into one
// record holding the median of every metric, in first-appearance order.
func medians(lines []record) []record {
	var out []record
	runs := map[string][]record{}
	for _, r := range lines {
		k := r.Pkg + "." + r.Name
		if runs[k] == nil {
			out = append(out, r)
		}
		runs[k] = append(runs[k], r)
	}
	for i, first := range out {
		rs := runs[first.Pkg+"."+first.Name]
		m := record{Name: first.Name, Pkg: first.Pkg, Runs: len(rs), Metrics: map[string]float64{}}
		vals := map[string][]float64{}
		for _, r := range rs {
			m.Iterations += r.Iterations
			for u, v := range r.Metrics {
				vals[u] = append(vals[u], v)
			}
		}
		for u, vs := range vals {
			sort.Float64s(vs)
			m.Metrics[u] = (vs[(len(vs)-1)/2] + vs[len(vs)/2]) / 2
		}
		out[i] = m
	}
	return out
}

// rules are the metrics -diff gates, each with a noise floor: a
// regression past the threshold fails the diff unless both sides are under
// the floor. At -benchtime 1x a sub-millisecond op is scheduler and cache
// noise. figureRegenSec (the checkpoint library's warm figure
// regeneration) and netTickNs (the event-driven netsim's per-tick cost)
// are each the whole point of their subsystem, so letting either creep
// would silently lose the optimization.
var rules = []struct {
	unit  string
	floor float64
}{
	{"ns/op", 1e6},
	{"figureRegenSec", 0.05},
	{"netTickNs", 200_000},
}

// diffArtifacts prints per-benchmark deltas between two artifacts and
// returns the process exit code: 1 if any gated metric regresses by more
// than threshold percent or the artifacts share no benchmark, 0 otherwise.
func diffArtifacts(oldDoc, newDoc document, threshold float64) int {
	keyOf := func(r record) string { return r.Pkg + "." + r.Name }
	old := make(map[string]record, len(oldDoc.Benchmarks))
	for _, r := range oldDoc.Benchmarks {
		old[keyOf(r)] = r
	}
	seen := make(map[string]bool, len(newDoc.Benchmarks))
	regressed, shared := false, 0
	for _, nr := range newDoc.Benchmarks {
		k := keyOf(nr)
		seen[k] = true
		or, ok := old[k]
		if !ok {
			fmt.Printf("%-60s new benchmark\n", k)
			continue
		}
		shared++
		for _, unit := range sortedUnits(nr.Metrics) {
			ov, nv := or.Metrics[unit], nr.Metrics[unit]
			if ov == 0 {
				continue
			}
			pct := 100 * (nv - ov) / ov
			note := ""
			for _, r := range rules {
				switch {
				case r.unit != unit:
				case ov < r.floor && nv < r.floor:
					note = "  below floor, not gated"
				case pct > threshold:
					note = fmt.Sprintf("  REGRESSION (> %.0f%%)", threshold)
					regressed = true
				default:
					note = "  ok"
				}
			}
			fmt.Printf("%-60s %12.4g -> %12.4g %-16s %+7.1f%%%s\n", k, ov, nv, unit, pct, note)
		}
	}
	for _, or := range oldDoc.Benchmarks {
		if k := keyOf(or); !seen[k] {
			fmt.Printf("%-60s removed\n", k)
		}
	}
	if shared == 0 {
		fmt.Println("FAIL: the artifacts share no benchmark, so nothing was compared (recorded at different -cpu settings?)")
		return 1
	}
	if regressed {
		fmt.Printf("FAIL: at least one gated metric regressed by more than %.0f%%\n", threshold)
		return 1
	}
	return 0
}

func loadArtifact(path string) (document, error) {
	var doc document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// sortedUnits returns metric units in a stable order.
func sortedUnits(m map[string]float64) []string {
	units := make([]string, 0, len(m))
	for u := range m {
		units = append(units, u)
	}
	sort.Strings(units)
	return units
}

// parseBench decodes one result line of the form
//
//	BenchmarkName-8   4   478490193 ns/op   627635 simcycles/s   0 allocs/op
func parseBench(line, pkg string) (record, bool) {
	f := strings.Fields(line)
	if len(f) < 4 {
		return record{}, false
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	r := record{Name: f[0], Pkg: pkg, Iterations: n, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return record{}, false
		}
		r.Metrics[f[i+1]] = v
	}
	return r, true
}
