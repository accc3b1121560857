// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 1–7, Tables 2–9), plus the ablations DESIGN.md calls
// out. Each experiment builds the right simulations, runs a warm-up phase
// (the paper measures a booted system in steady state over hundreds of
// millions of instructions), measures a window, and renders the paper's
// artifact next to the paper's published values.
package experiments

import (
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
)

// Scale sets the cycle budget of an experiment.
type Scale struct {
	// Warmup is the cycles run before measurement begins.
	Warmup uint64
	// Measure is the measured window in cycles.
	Measure uint64
	// Interval is the 10 ms interrupt granularity in cycles.
	Interval uint64
	// Sampling, when enabled, runs every simulation built through the
	// standard specConfig/apacheConfig helpers in sampled mode (fast-forward with
	// warming between detailed windows). Percentage-style metrics remain
	// estimates of the detailed windows; raw counters are not comparable to
	// full-detail runs.
	Sampling core.Sampling
}

// Quick is the test-suite scale (seconds per experiment).
var Quick = Scale{Warmup: 600_000, Measure: 900_000, Interval: 120_000}

// Full is the reporting scale used for EXPERIMENTS.md.
var Full = Scale{Warmup: 2_500_000, Measure: 4_000_000, Interval: 200_000}

// Result is one regenerated artifact.
type Result struct {
	// ID is the experiment id ("fig1" … "tab9", "ablation-…").
	ID string
	// Title describes the artifact.
	Title string
	// Text is the rendered report.
	Text string
	// Values holds the key numbers for tests, benches and EXPERIMENTS.md.
	Values map[string]float64
}

// env carries per-run context through an experiment function — the
// supervisor when the run is supervised, and the checkpoint-library runner
// when the run regenerates from windows (both nil on plain runs). Each job
// in a parallel sweep gets its own env, so experiment functions never share
// mutable state across goroutines.
type env struct {
	sup *supervisor
	win *WindowRunner
}

// runner builds one experiment.
type runner struct {
	title string
	fn    func(ev *env, sc Scale, seed uint64) Result
}

var registry = map[string]runner{}

func register(id, title string, fn func(ev *env, sc Scale, seed uint64) Result) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate experiment id " + strconv.Quote(id))
	}
	registry[id] = runner{title: title, fn: fn}
}

// IDs returns all experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// --------------------------------------------------------------- helpers

// advance moves a simulation forward by n cycles. Under supervision it
// routes through the run's supervisor (deadline, periodic audits, checkpoint
// memoization); otherwise it is a plain Run.
func (ev *env) advance(sim *core.Simulator, n uint64) {
	if ev.sup != nil {
		ev.sup.step(sim, n)
		return
	}
	sim.Run(n)
}

// simConfig is one simulation configuration: the workload name and the
// options a simulator is built from. Experiments hand configurations, not
// built simulators, to window, phases and steps: a WindowRunner finds its
// library by configuration alone, so only the live path builds one.
type simConfig struct {
	workload string
	opts     core.Options
}

// build constructs the configured simulator; invalid options panic, as
// experiment functions have no error path.
func (c simConfig) build() *core.Simulator {
	sim, err := core.New(c.workload, c.opts)
	if err != nil {
		panic(err)
	}
	return sim
}

// window runs warmup, then measures for sc.Measure cycles and returns the
// delta snapshot of the measured window. Under a WindowRunner nothing is
// built or run here: the result is the merged deltas of the library
// windows that open after warmup.
func (ev *env) window(c simConfig, sc Scale) report.Snapshot {
	if ev.win != nil {
		return ev.win.merged(c, sc, sc.Warmup, ^uint64(0))
	}
	return ev.run(c.build(), sc)
}

// run is window's live path on a built simulator.
func (ev *env) run(sim *core.Simulator, sc Scale) report.Snapshot {
	ev.advance(sim, sc.Warmup)
	a := report.Take(sim)
	ev.advance(sim, sc.Measure)
	b := report.Take(sim)
	return report.Delta(a, b)
}

// phases runs the simulation from cold and returns the start-up window
// (the first sc.Warmup cycles) and the steady window (the next sc.Measure).
// Under a WindowRunner the two phases are the merged library windows that
// open before and after the warmup boundary.
func (ev *env) phases(c simConfig, sc Scale) (startup, steady report.Snapshot) {
	if ev.win != nil {
		return ev.win.merged(c, sc, 0, sc.Warmup), ev.win.merged(c, sc, sc.Warmup, ^uint64(0))
	}
	sim := c.build()
	zero := report.Take(sim)
	ev.advance(sim, sc.Warmup)
	a := report.Take(sim)
	ev.advance(sim, sc.Measure)
	b := report.Take(sim)
	return report.Delta(zero, a), report.Delta(a, b)
}

// stepWin is one time-series bucket of a steps() sweep: the cycle at which
// the bucket ends and its window delta.
type stepWin struct {
	end uint64
	w   report.Snapshot
}

// steps splits the full span into n equal time buckets and returns each
// bucket's delta, for the Figure 1/5 time series. Under a WindowRunner a
// bucket holds the merged library windows opening inside it (the windowed
// sampling period guarantees at least one per bucket); otherwise the
// simulation advances bucket by bucket.
func (ev *env) steps(c simConfig, sc Scale, n int) []stepWin {
	total := sc.Warmup + sc.Measure
	step := total / uint64(n)
	out := make([]stepWin, n)
	if ev.win != nil {
		for i := 0; i < n; i++ {
			from, to := uint64(i)*step, uint64(i+1)*step
			if i == n-1 {
				// Integer division can leave a tail after the last bucket
				// boundary; fold any window opening there into the last
				// bucket rather than dropping it.
				to = ^uint64(0)
			}
			out[i] = stepWin{end: uint64(i+1) * step, w: ev.win.merged(c, sc, from, to)}
		}
		return out
	}
	sim := c.build()
	prev := report.Take(sim)
	for i := 0; i < n; i++ {
		ev.advance(sim, step)
		cur := report.Take(sim)
		out[i] = stepWin{end: sim.Now(), w: report.Delta(prev, cur)}
		prev = cur
	}
	return out
}

// paperNote renders a "paper reported" reference block.
func paperNote(lines ...string) string {
	var b strings.Builder
	b.WriteString("\nPaper reference (ASPLOS 2000):\n")
	for _, l := range lines {
		b.WriteString("  " + l + "\n")
	}
	return b.String()
}

// specConfig is the SPECInt configuration at scale sc.
func specConfig(sc Scale, seed uint64, o core.Options) simConfig {
	o.Seed = seed
	o.CyclesPer10ms = sc.Interval
	o.Sampling = sc.Sampling
	return simConfig{"specint", o}
}

// apacheConfig is the Apache configuration at scale sc.
func apacheConfig(sc Scale, seed uint64, o core.Options) simConfig {
	o.Seed = seed
	o.CyclesPer10ms = sc.Interval
	o.Sampling = sc.Sampling
	return simConfig{"apache", o}
}
