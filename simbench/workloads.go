package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/report"
)

// size sets the simulated work of an Apache workload in retired
// instructions: those simulated before the checkpoint is taken, and those
// each op retires. Simulated IPC differs from seed to seed by up to a
// third, and host time follows simulated instructions, so both are sized
// in instructions. Warm-up runs until it has retired its instructions;
// prime finds how many cycles the warm state needs to retire an op's, and
// every op simulates exactly that many cycles.
type size struct {
	warm, insts uint64
}

// The sizes used by the benchmark: each op is about a second of host work
// or more (shorter ops were dominated by scheduler noise).
var (
	smtSize   = size{warm: 3_000_000, insts: 2_000_000}
	fleetSize = size{warm: 8_000_000, insts: 12_000_000}
)

// fullInterval is experiments.Full's 10 ms interrupt granularity, used by
// the Apache workloads so their network ticks match the figures'.
var fullInterval = experiments.Full.Interval

// opResult is what one op produced: the simulated digest the output checks
// compare, and the simulated counters of the op (report.Delta of the
// simulated interval; for figure-regen the merged measurement windows).
type opResult struct {
	digest string
	w      report.Snapshot
	// cycles is the simulated cycles the op advanced.
	cycles uint64
}

// workload is one benchmark workload. setup builds (or rebuilds, replacing
// the previous one) the warm state every op starts from; op replays it.
type workload interface {
	setup(tr *tracer) error
	// prime runs once, untimed, between the last setup and the first op.
	prime() error
	op(tr *tracer) (opResult, error)
	// imageBytes is the size of the state each op decodes.
	imageBytes() int64
}

// newWorkload returns the named workload at the given seed. dir is a
// scratch directory the workload may write (figure-regen's library).
func newWorkload(name string, seed uint64, dir string, small bool) (workload, error) {
	switch name {
	case "apache-smt":
		sz := smtSize
		if small {
			sz = size{warm: 300_000, insts: 150_000}
		}
		return &replay{sz: sz, opts: smtOptions(seed)}, nil
	case "apache-fleet":
		sz := fleetSize
		opts := fleetOptions(seed, 1_000_000)
		if small {
			sz = size{warm: 300_000, insts: 900_000}
			opts = fleetOptions(seed, 10_000)
		}
		return &replay{sz: sz, opts: opts, checked: true}, nil
	case "figure-regen":
		sc := experiments.Full
		if small {
			sc = experiments.Scale{Warmup: 200_000, Measure: 440_000, Interval: 40_000}
		}
		sc.Sampling = experiments.WindowedSampling(sc)
		return &figureRegen{sc: sc, seed: seed, root: filepath.Join(dir, "library")}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"apache-smt", "apache-fleet", "figure-regen"}

// smtOptions is the paper's headline configuration: an 8-context SMT with
// 64 Apache processes and 128 SPECWeb clients, in full detail.
func smtOptions(seed uint64) core.Options {
	return core.Options{Seed: seed, CyclesPer10ms: fullInterval}
}

// fleetOptions is ablation-scale's constant-load row at the given client
// count (think = stagger = clients/32, idle reaping, latency capture) in
// sampled mode: fast-forward with warming between 5k-cycle detail windows.
func fleetOptions(seed uint64, clients int) core.Options {
	stagger := clients / 32
	return core.Options{
		Seed:             seed,
		CyclesPer10ms:    fullInterval,
		Clients:          clients,
		ThinkTicks:       stagger,
		StaggerTicks:     stagger,
		MeasureLatency:   true,
		IdleTimeoutTicks: 8,
		Sampling:         core.Sampling{Period: 250_000, DetailWindow: 5_000},
	}
}

// replay is an Apache workload whose ops restore one in-memory checkpoint
// into a live simulator and simulate a fixed interval from it.
type replay struct {
	sz      size
	opts    core.Options
	checked bool // run under RunChecked (watchdog on)
	sim     *core.Simulator
	img     *checkpoint.Image
	// cycles is the op interval, found by prime.
	cycles uint64
}

func (r *replay) setup(tr *tracer) error {
	r.sim, r.img = nil, nil
	var sim *core.Simulator
	err := tr.do("core.New", func() (err error) {
		sim, err = core.New("apache", r.opts)
		return err
	})
	if err != nil {
		return err
	}
	if err := tr.do("core.Run", func() error { _, err := runInsts(sim, r.sz.warm); return err }); err != nil {
		return err
	}
	var img *checkpoint.Image
	err = tr.do("core.Checkpoint", func() (err error) {
		img, err = sim.Checkpoint()
		return err
	})
	if err != nil {
		return err
	}
	r.sim, r.img = sim, img
	return nil
}

// prime restores the checkpoint and finds the op interval: the cycles the
// warm state needs to retire the op's instructions.
func (r *replay) prime() (err error) {
	if err := r.sim.RestoreInto(r.img); err != nil {
		return err
	}
	r.cycles, err = runInsts(r.sim, r.sz.insts)
	return err
}

func (r *replay) op(tr *tracer) (opResult, error) {
	sim := r.sim
	if err := tr.do("core.RestoreInto", func() error { return sim.RestoreInto(r.img) }); err != nil {
		return opResult{}, err
	}
	var a, b report.Snapshot
	tr.do("report.Take", func() error { a = report.Take(sim); return nil })
	err := tr.do("core.Run", func() error {
		if r.checked {
			return sim.RunChecked(context.Background(), r.cycles)
		}
		sim.Run(r.cycles)
		return nil
	})
	if err != nil {
		return opResult{}, err
	}
	if err := tr.do("core.Audit", sim.Audit); err != nil {
		return opResult{}, fmt.Errorf("audit after op: %w", err)
	}
	tr.do("report.Take", func() error { b = report.Take(sim); return nil })
	var w report.Snapshot
	tr.do("report.Delta", func() error { w = report.Delta(a, b); return nil })
	return opResult{digest: digest(w), w: w, cycles: r.cycles}, nil
}

// runChunk is the cycle granularity of instruction-sized runs.
const runChunk = 10_000

// runInsts runs sim in chunks until it has retired n more instructions
// and returns the cycles that took. It gives up where IPC would have to
// be below 0.1.
func runInsts(sim *core.Simulator, n uint64) (uint64, error) {
	start, target := sim.Now(), sim.Engine.Metrics.Retired+n
	for sim.Engine.Metrics.Retired < target {
		if sim.Now()-start > 10*n {
			return 0, fmt.Errorf("%d instructions not retired within %d cycles", n, sim.Now()-start)
		}
		sim.Run(runChunk)
	}
	return sim.Now() - start, nil
}

func (r *replay) imageBytes() int64 {
	var n int64
	for _, s := range r.img.Names() {
		n += int64(r.img.SectionLen(s))
	}
	return n
}

// figureIDs are the figures figure-regen renders: both come from the same
// Apache configuration, so they share one library fingerprint.
var figureIDs = []string{"fig5", "fig7"}

// figureRegen regenerates Figures 5 and 7 from a warm checkpoint library,
// serially in process. setup builds the library; each op is a fresh
// WindowRunner (no memoized windows) and a full render.
type figureRegen struct {
	sc      experiments.Scale
	seed    uint64
	root    string
	fp      string
	windows int
	// ref is the first render of the run; every later render must match it.
	ref string
	// w is the merged measurement windows of the library and wDigest their
	// digest, computed once by prime.
	w       report.Snapshot
	wDigest string
}

// options mirrors the configuration the Apache figures build at scale sc.
func (f *figureRegen) options() core.Options {
	return core.Options{Seed: f.seed, CyclesPer10ms: f.sc.Interval, Sampling: f.sc.Sampling}
}

func (f *figureRegen) span() uint64 { return f.sc.Warmup + f.sc.Measure }

func (f *figureRegen) libDir() string {
	return filepath.Join(f.root, core.Fingerprint("apache", f.options(), f.span()))
}

func (f *figureRegen) setup(tr *tracer) error {
	if err := os.RemoveAll(f.root); err != nil {
		return err
	}
	return tr.do("experiments.BuildLibrary", func() error {
		idx, err := experiments.BuildLibrary(f.libDir(), "apache", f.options(), f.span())
		f.fp, f.windows = idx.Fingerprint, len(idx.Windows)
		return err
	})
}

// prime runs every library window once: it reads the simulated counters
// the figures fold (keeping them out of the timed ops) and warms the same
// restore and detail paths the renders take.
func (f *figureRegen) prime() error {
	wins := make([]int, f.windows)
	for i := range wins {
		wins[i] = i
	}
	res, err := experiments.RunWindowJobs(f.libDir(), wins, f.fp)
	if err != nil {
		return err
	}
	if len(res) == 0 {
		return fmt.Errorf("library %s has no windows", f.libDir())
	}
	f.w = res[0].W
	for _, r := range res[1:] {
		f.w = report.Merge(f.w, r.W)
	}
	f.wDigest = digest(f.w)
	return nil
}

func (f *figureRegen) op(tr *tracer) (opResult, error) {
	var out string
	tr.do("experiments.RenderWindowed", func() error {
		wr := experiments.NewWindowRunner(experiments.WindowedConfig{Dir: f.root, Workers: 1})
		out = experiments.RenderWindowed(figureIDs, f.sc, f.seed, wr)
		return nil
	})
	for _, id := range figureIDs {
		if !strings.Contains(out, "################ "+id+" ") {
			return opResult{}, fmt.Errorf("render lacks the %s header", id)
		}
	}
	if f.ref == "" {
		f.ref = out
	} else if out != f.ref {
		return opResult{}, fmt.Errorf("render differs from the run's first render")
	}
	// A render that rebuilt the library (fingerprint mismatch) would leave
	// a second configuration directory behind.
	if ents, err := os.ReadDir(f.root); err != nil || len(ents) != 1 {
		return opResult{}, fmt.Errorf("library root holds %d configurations, want 1 (%v)", len(ents), err)
	}
	render := fmt.Sprintf("%x", sha256.Sum256([]byte(out)))[:16]
	return opResult{digest: f.wDigest + "/" + render, w: f.w, cycles: f.span()}, nil
}

func (f *figureRegen) imageBytes() int64 {
	var n int64
	ents, _ := os.ReadDir(f.libDir())
	for _, e := range ents {
		if fi, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), ".ckpt") {
			n += fi.Size()
		}
	}
	return n
}

// digest condenses every counter of a report delta. report.Snapshot holds
// no maps, so its printed form is deterministic.
func digest(w report.Snapshot) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v", w))))[:16]
}
