// Checkpoint-library regeneration: build a library of per-window checkpoint
// images once per simulation configuration, then regenerate figures by
// restoring the windows independently on an in-process worker pool and
// folding the per-window report deltas back together in window order. The
// fold is the same left-to-right accumulation a serial run performs, so
// rendered output is byte-identical for any worker count.
//
// Library layout on disk (one directory per configuration fingerprint):
//
//	<dir>/<fingerprint>/index.json     window list, span, code version
//	<dir>/<fingerprint>/win-0000.ckpt  checkpoint.Image + library manifest
//	<dir>/<fingerprint>/win-0001.ckpt  ...
//
// Invalidation is by fingerprint: the manifest embedded in every image names
// the configuration (workload, options, seed partitioning, code version,
// span) that produced it, and restores reject a mismatch with a structured
// *checkpoint.FormatError instead of silently replaying stale state. A
// missing or mismatched index triggers a rebuild.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/report"
)

// WindowedConfig configures a WindowRunner.
type WindowedConfig struct {
	// Dir is the library root; each configuration gets a fingerprint-named
	// subdirectory.
	Dir string
	// Workers bounds concurrent window jobs (<= 1 is serial).
	Workers int
}

// WindowResult is the outcome of one restored window: its position and the
// report delta of its measurement window.
type WindowResult struct {
	// Window is the window index within the library.
	Window int
	// Cycle and Retired locate the window's opening boundary.
	Cycle, Retired uint64
	// W is the measurement-window report delta.
	W report.Snapshot
}

// libEntry memoizes one configuration's window results within a runner.
type libEntry struct {
	once sync.Once
	res  []WindowResult
	err  error
}

// WindowRunner regenerates experiments from checkpoint libraries. It
// memoizes window results per configuration fingerprint, so experiments that
// share a configuration (most figures reuse the same three simulations) pay
// for its windows once.
type WindowRunner struct {
	cfg  WindowedConfig
	mu   sync.Mutex
	memo map[string]*libEntry
}

// NewWindowRunner returns a runner over the given library root.
func NewWindowRunner(cfg WindowedConfig) *WindowRunner {
	return &WindowRunner{cfg: cfg, memo: map[string]*libEntry{}}
}

// results returns the window results for one configuration, building the
// library and running the window jobs on first use.
func (wr *WindowRunner) results(workloadName string, o core.Options, span uint64) ([]WindowResult, error) {
	fp := core.Fingerprint(workloadName, o, span)
	wr.mu.Lock()
	e, ok := wr.memo[fp]
	if !ok {
		e = &libEntry{}
		wr.memo[fp] = e
	}
	wr.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = wr.run(fp, workloadName, o, span)
	})
	return e.res, e.err
}

// run ensures a current library for the configuration and executes its
// window jobs.
func (wr *WindowRunner) run(fp, workloadName string, o core.Options, span uint64) ([]WindowResult, error) {
	dir := filepath.Join(wr.cfg.Dir, fp)
	idx, err := checkpoint.ReadLibraryIndex(dir)
	if err != nil || idx.Fingerprint != fp || idx.Span != span {
		// No usable library (first run, stale fingerprint, different span):
		// build one. The index is written last, so a crash mid-build leaves
		// no index and the next run rebuilds.
		idx, err = BuildLibrary(dir, workloadName, o, span)
		if err != nil {
			return nil, err
		}
	}
	// Windows are dealt round-robin into one batch per worker: a batch
	// shares one restored simulator (the static machine is rebuilt once,
	// then each window's state is overwritten in place), which amortizes
	// the workload-construction cost that would otherwise dominate every
	// job. Round-robin keeps the batches balanced — early windows carry
	// less cache state and restore faster than late ones.
	batches := roundRobin(len(idx.Windows), wr.cfg.Workers)
	out := make([]WindowResult, len(idx.Windows))
	errs := make([]error, len(batches))
	forEach(len(batches), wr.cfg.Workers, func(i int) {
		res, err := RunWindowJobs(dir, batches[i], fp)
		errs[i] = err
		// Scatter by window index: batch order is a scheduling detail,
		// the merged fold below always walks windows in library order.
		for _, r := range res {
			out[r.Window] = r
		}
	})
	for _, jerr := range errs {
		if jerr != nil {
			return nil, jerr
		}
	}
	return out, nil
}

// roundRobin deals n items into at most workers non-empty batches.
func roundRobin(n, workers int) [][]int {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	batches := make([][]int, workers)
	for i := 0; i < n; i++ {
		batches[i%workers] = append(batches[i%workers], i)
	}
	return batches
}

// BuildLibrary generates the checkpoint library for one configuration: the
// simulation fast-forwards in library-build mode (functionally warming
// caches, TLBs and the branch predictor, never paying for detail), and at
// each window-opening boundary the audited full-machine state is written as
// one image. The index is written last.
func BuildLibrary(dir, workloadName string, o core.Options, span uint64) (checkpoint.LibraryIndex, error) {
	fp := core.Fingerprint(workloadName, o, span)
	idx := checkpoint.LibraryIndex{
		Fingerprint: fp,
		CodeVersion: core.CodeVersion,
		Workload:    workloadName,
		Seed:        o.Seed,
		Span:        span,
	}
	if !o.Sampling.Enabled() {
		return idx, fmt.Errorf("experiments: library build needs sampling enabled (set Scale.Sampling)")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return idx, fmt.Errorf("experiments: %w", err)
	}
	sim, err := core.New(workloadName, o)
	if err != nil {
		return idx, err
	}
	sim.Engine.SetSampleLibraryBuild(true)
	var cycle uint64
	for {
		if sim.Engine.AtWindowStart() && cycle < span {
			if err := sim.Audit(); err != nil {
				return idx, fmt.Errorf("experiments: refusing to checkpoint inconsistent state at window %d: %w", len(idx.Windows), err)
			}
			img, err := sim.Checkpoint()
			if err != nil {
				return idx, err
			}
			m := checkpoint.LibraryManifest{
				Fingerprint: fp,
				CodeVersion: core.CodeVersion,
				Seed:        o.Seed,
				Window:      len(idx.Windows),
				Cycle:       cycle,
				Retired:     sim.Engine.Metrics.Retired,
			}
			checkpoint.PutManifest(img, m)
			path := checkpoint.LibraryWindowPath(dir, m.Window)
			if err := checkpoint.WriteFile(path, img); err != nil {
				return idx, err
			}
			idx.Windows = append(idx.Windows, checkpoint.LibraryWindow{
				File:    filepath.Base(path),
				Cycle:   m.Cycle,
				Retired: m.Retired,
			})
		}
		if cycle >= span {
			break
		}
		ran, _ := sim.Engine.RunToNextWindow(span - cycle)
		cycle += ran
	}
	if err := checkpoint.WriteLibraryIndex(dir, idx); err != nil {
		return idx, err
	}
	return idx, nil
}

// RunWindowJobs restores each listed window image and runs only its warmup
// and measurement phases in full detail. The windows must come from one
// library (same configuration): the static machine is built once, from the
// first image, and every later image only overwrites its mutable state —
// restores are independent, so the per-window deltas are identical to
// restoring each window into a fresh simulator. The images are read one
// after another into one buffer: each is restored before the next read
// overwrites it.
func RunWindowJobs(dir string, wins []int, wantFP string) ([]WindowResult, error) {
	out := make([]WindowResult, 0, len(wins))
	var sim *core.Simulator
	var buf []byte
	for _, win := range wins {
		path := checkpoint.LibraryWindowPath(dir, win)
		var img *checkpoint.Image
		var err error
		img, buf, err = checkpoint.ReadFileInto(path, buf)
		if err != nil {
			return nil, err
		}
		m, err := checkpoint.VerifyManifest(img, path, wantFP)
		if err != nil {
			return nil, err
		}
		if sim == nil {
			sim, err = core.Restore(img)
		} else {
			err = sim.RestoreInto(img)
		}
		if err != nil {
			return nil, err
		}
		// The image was captured in library-build mode; this run executes
		// the deferred detail work.
		sim.Engine.SetSampleLibraryBuild(false)
		warmup, detail := sim.Engine.SampleWindow()
		sim.Run(warmup)
		a := report.Take(sim)
		// The trailing FSM advance inside Run closes the window after its
		// last cycle, so the delta's Sampling series carries exactly this
		// window's observation.
		sim.Run(detail)
		b := report.Take(sim)
		out = append(out, WindowResult{Window: win, Cycle: m.Cycle, Retired: m.Retired, W: report.Delta(a, b)})
	}
	return out, nil
}

// merged folds the report deltas of every window whose opening boundary lies
// in [from, to), in window order, for configuration c.
func (wr *WindowRunner) merged(c simConfig, sc Scale, from, to uint64) report.Snapshot {
	span := sc.Warmup + sc.Measure
	res, err := wr.results(c.workload, c.opts, span)
	if err != nil {
		// Experiment functions have no error path; a broken library is an
		// environment failure, not a measurement.
		panic(fmt.Sprintf("experiments: checkpoint library for %s: %v", c.workload, err))
	}
	var acc report.Snapshot
	first := true
	for _, r := range res {
		if r.Cycle < from || r.Cycle >= to {
			continue
		}
		if first {
			acc = r.W
			first = false
			continue
		}
		acc = report.Merge(acc, r.W)
	}
	return acc
}

// WindowedSampling returns the sampling configuration the windowed pipeline
// uses for a scale: 32 windows across the span. Every figure bucket (16
// steps for Figure 1, 12 for Figure 5) is then at least two periods long, so
// the jittered placement cannot leave a bucket without a window.
func WindowedSampling(sc Scale) core.Sampling {
	return core.Sampling{Period: (sc.Warmup + sc.Measure) / 32}
}

// RenderWindowed renders the ids in order from checkpoint libraries (see
// Plan.Library). The experiments run serially; parallelism lives inside the
// window jobs, and the memoized libraries are shared across ids, so every
// configuration's windows run once. Output is byte-identical for any
// worker count.
func RenderWindowed(ids []string, sc Scale, seed uint64, wr *WindowRunner) string {
	out, err := Execute(Plan{IDs: ids, Scale: sc, Seed: seed, Seeds: 1, Workers: 1, Library: wr})
	if err != nil {
		return fmt.Sprintln(err)
	}
	return Render(out)
}
