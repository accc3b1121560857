// Command experiments regenerates the paper's tables and figures.
//
//	experiments                 # run everything at full scale
//	experiments -run tab6       # one experiment
//	experiments -quick          # reduced cycle budget (CI/laptop smoke)
//	experiments -list           # available experiment ids
//	experiments -seeds 3 -run ablation-fetch  # mean and [min, max] over seeds 1..3
//	experiments -quick -json -audit 300000    # machine-readable, audited
//	experiments -timeout 5m     # per-experiment budget, retry from checkpoint
//	experiments -parallel 4     # worker pool; output identical to -parallel 1
//	experiments -sample         # sampled simulations (-sample-period, -sample-window)
//	experiments -windows-parallel 4           # checkpoint-library regeneration
//	experiments -quick -cpuprofile cpu.pprof  # profile the whole sweep
//
// A full-detail run of every experiment (no -run, -sample, -windows-parallel
// or -json) ends with the paper-fidelity table, one per seed: each headline
// claim of the paper, its measured value and whether it holds.
//
// Every mode runs through one experiments.Plan. Supervision (-json,
// -timeout, -audit) does not combine with -windows-parallel; an invalid
// combination or count exits 2, an unknown -run id exits 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"

	"repro/internal/core"
	"repro/internal/experiments"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command; every path returns through it so the profile
// stop runs before the process exits.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		p      = experiments.Plan{Scale: experiments.Full}
		smp    core.Sampling
		sample bool
		prof   core.Profile

		runID       = fs.String("run", "", "experiment id to run (empty = all)")
		quick       = fs.Bool("quick", false, "reduced cycle budget")
		list        = fs.Bool("list", false, "list experiment ids")
		winParallel = fs.Int("windows-parallel", 0, "regenerate from a checkpoint library with this many in-process window workers (0 = off; builds the library on first use)")
		libraryDir  = fs.String("library", "", "checkpoint-library root for -windows-parallel (default: <tmpdir>/ossmt-library)")
	)
	fs.Uint64Var(&p.Seed, "seed", 1, "simulation seed")
	fs.IntVar(&p.Seeds, "seeds", 1, "run with this many seeds and report mean +/- spread of key values")
	fs.IntVar(&p.Workers, "parallel", runtime.GOMAXPROCS(0), "worker-pool size for independent (experiment, seed) jobs; results are ordered, so output is identical for any value")
	fs.BoolVar(&p.Supervise, "json", false, "emit machine-readable JSON (implies supervised runs)")
	fs.DurationVar(&p.Timeout, "timeout", 0, "per-experiment wall-clock budget; on a trip the experiment retries once, resuming from checkpoints (0 = none)")
	fs.Uint64Var(&p.AuditEvery, "audit", 0, "run the invariant auditor every N cycles during each experiment (0 = off)")
	core.BindSampleFlags(fs, &smp, &sample)
	prof.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := prof.Start(stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer stop()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}
	if *quick {
		p.Scale = experiments.Quick
	}
	if sample {
		p.Scale.Sampling = smp
	}
	if *runID != "" {
		p.IDs = []string{*runID}
	}
	if *winParallel > 0 {
		// Checkpoint-library regeneration: windows restore and run on a
		// worker pool; experiment output is assembled serially in id order,
		// so the bytes are identical for any worker count.
		if !p.Scale.Sampling.Enabled() {
			p.Scale.Sampling = experiments.WindowedSampling(p.Scale)
		}
		dir := *libraryDir
		if dir == "" {
			dir = filepath.Join(os.TempDir(), "ossmt-library")
		}
		p.Library = experiments.NewWindowRunner(experiments.WindowedConfig{Dir: dir, Workers: *winParallel})
	}

	out, err := experiments.Execute(p)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	for _, o := range out {
		if o.Err != nil {
			fmt.Fprintln(stderr, o.Err)
			return 1
		}
	}
	switch {
	case p.Supervised():
		return supervised(stdout, stderr, aggregate(out, p.Seeds), p.Supervise)
	case p.Seeds > 1:
		multiSeed(stdout, aggregate(out, p.Seeds))
	case *runID == "" || p.Library != nil:
		fmt.Fprint(stdout, experiments.Render(out))
	default:
		fmt.Fprintf(stdout, "%s — %s\n\n%s\n", out[0].ID, out[0].Res.Title, out[0].Res.Text)
	}
	if *runID == "" && !p.Scale.Sampling.Enabled() {
		// A full-detail run of everything checks the paper's claims: one
		// fidelity table per seed. (Sampled counters are not comparable.)
		if p.Seeds > 1 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprint(stdout, experiments.RenderFidelity(out))
	}
	return 0
}

// record is the aggregate of one experiment across its seeds, and the
// machine-readable form of it.
type record struct {
	ID            string                `json:"id"`
	Title         string                `json:"title"`
	Status        string                `json:"status"` // "ok" or "partial"
	Retried       bool                  `json:"retried"`
	Error         string                `json:"error,omitempty"`
	Seeds         []uint64              `json:"seeds"`
	Values        map[string]float64    `json:"values"`           // mean across seeds
	Spread        map[string][2]float64 `json:"spread,omitempty"` // [min,max] across seeds
	Audits        uint64                `json:"audits"`
	Checkpoints   uint64                `json:"checkpoints"`
	FaultCrashes  uint64                `json:"faultCrashes"`
	FramesDropped uint64                `json:"framesDropped"`

	text string // the last seed's rendered report
}

// aggregate folds Execute's id-major, seed-minor outcomes into one record
// per id: the mean and (with several seeds) the [min, max] of every key
// value, plus the summed supervision status.
func aggregate(out []experiments.Outcome, nSeeds int) []record {
	recs := make([]record, 0, len(out)/nSeeds)
	for i := 0; i < len(out); i += nSeeds {
		rec := record{ID: out[i].ID, Status: "ok", Values: map[string]float64{}}
		if nSeeds > 1 {
			rec.Spread = map[string][2]float64{}
		}
		acc := map[string][]float64{}
		for _, o := range out[i : i+nSeeds] {
			st := o.Status
			rec.Title = o.Res.Title
			rec.Seeds = append(rec.Seeds, o.Seed)
			rec.Audits += st.Audits
			rec.Checkpoints += st.Checkpoints
			rec.FaultCrashes += st.FaultCrashes
			rec.FramesDropped += st.FramesDropped
			rec.Retried = rec.Retried || st.Retried
			if st.Partial {
				rec.Status = "partial"
				rec.Error = st.Error
			}
			for k, v := range o.Res.Values {
				acc[k] = append(acc[k], v)
			}
			rec.text = o.Res.Text
		}
		for k, vs := range acc {
			mean, lo, hi := 0.0, math.Inf(1), math.Inf(-1)
			for _, v := range vs {
				mean += v
				lo = math.Min(lo, v)
				hi = math.Max(hi, v)
			}
			rec.Values[k] = mean / float64(len(vs))
			if rec.Spread != nil {
				rec.Spread[k] = [2]float64{lo, hi}
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// supervised renders supervised records as JSON or as the human report,
// and exits 1 when any run was partial.
func supervised(stdout, stderr io.Writer, recs []record, jsonOut bool) int {
	failed := false
	for _, rec := range recs {
		failed = failed || rec.Status != "ok"
		if jsonOut {
			continue
		}
		status := rec.Status
		if rec.Retried {
			status += " (retried)"
		}
		fmt.Fprintf(stdout, "################ %s — %s [%s]\n\n%s\n", rec.ID, rec.Title, status, rec.text)
		if rec.Error != "" {
			fmt.Fprintf(stdout, "  partial result; last error: %s\n\n", rec.Error)
		}
	}
	if jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(recs); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// multiSeed reports, for every key value, the mean and [min, max] across
// seeds — a sanity check that a conclusion does not hinge on one random
// stream. With several ids (-seeds without -run) the blocks are separated
// by a blank line.
func multiSeed(stdout io.Writer, recs []record) {
	for i, rec := range recs {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "%s — %s (%d seeds)\n\n", rec.ID, rec.Title, len(rec.Seeds))
		keys := make([]string, 0, len(rec.Values))
		for k := range rec.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(stdout, "  %-24s mean %.3f   range [%.3f, %.3f]\n", k, rec.Values[k], rec.Spread[k][0], rec.Spread[k][1])
		}
	}
}
