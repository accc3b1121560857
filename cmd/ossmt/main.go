// Command ossmt runs one simulation of the reproduced system — the paper's
// SMT (or superscalar baseline) executing the behavioral Digital Unix kernel
// under a SPECInt95 or Apache/SPECWeb workload — and prints a measurement
// summary.
//
// Examples:
//
//	ossmt -workload apache -cycles 6000000
//	ossmt -workload specint -proc ss -apponly -cycles 4000000
//	ossmt -workload apache -warmup 3000000 -cycles 6000000 -seed 7
//	ossmt -workload apache -loss 0.05 -crashrate 0.01 -deadline 2m
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is everything the command line sets: the simulation options and
// supervision come from core's flag tables, the rest belongs to this
// command.
type config struct {
	opts      core.Options
	sample    bool
	sup       core.Supervision
	prof      core.Profile
	workload  string
	restore   string
	cycles    uint64
	warmup    uint64
	perThread bool
	deadline  time.Duration
}

// flagSet binds every ossmt flag onto c: the simulation options and
// supervision through core's flag tables, then this command's own flags.
func (c *config) flagSet(stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("ossmt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	c.opts.BindFlags(fs, &c.sample)
	c.sup.BindFlags(fs)
	c.prof.BindFlags(fs)
	fs.StringVar(&c.workload, "workload", "apache", "workload: specint | apache")
	fs.StringVar(&c.restore, "restore", "", "resume from this checkpoint instead of a fresh boot")
	fs.Uint64Var(&c.cycles, "cycles", 4_000_000, "measured cycles")
	fs.Uint64Var(&c.warmup, "warmup", 2_000_000, "warm-up cycles before measurement")
	fs.BoolVar(&c.perThread, "perthread", false, "print a per-thread breakdown")
	fs.DurationVar(&c.deadline, "deadline", 0, "wall-clock budget for the whole run (0 = none)")
	return fs
}

// parse reads the command line into a config. A -ckpt-every without
// -checkpoint is rejected: auto-checkpoints would have nowhere to go.
func parse(args []string, stderr io.Writer) (*config, error) {
	c := &config{}
	if err := c.flagSet(stderr).Parse(args); err != nil {
		return nil, err
	}
	if c.sup.CheckpointEvery > 0 && c.sup.CheckpointPath == "" {
		err := errors.New("ossmt: -ckpt-every needs -checkpoint")
		fmt.Fprintln(stderr, err)
		return nil, err
	}
	return c, nil
}

// run is the whole command; every path returns through it so the profile
// stop runs before the process exits.
func run(args []string, stdout, stderr io.Writer) int {
	c, err := parse(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	stop, err := c.prof.Start(stderr)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	defer stop()
	if !c.sample {
		c.opts.Sampling = core.Sampling{}
	}

	var sim *core.Simulator
	workload := c.workload
	if c.restore != "" {
		// The checkpoint carries its own workload and options; the
		// configuration flags above are ignored on resume.
		sim, err = core.RestoreFile(c.restore)
		if err == nil {
			workload = sim.Workload
			fmt.Fprintf(stderr, "ossmt: resumed %s/%s at cycle %d from %s\n",
				sim.Workload, sim.Opts.Processor, sim.Now(), c.restore)
		}
	} else {
		sim, err = core.New(workload, c.opts)
	}
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	sim.Sup = c.sup

	ctx := context.Background()
	if c.deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.deadline)
		defer cancel()
	}

	if err := sim.RunChecked(ctx, c.warmup); err != nil {
		return fail(stderr, err)
	}
	before := report.Take(sim)
	if err := sim.RunChecked(ctx, c.cycles); err != nil {
		return fail(stderr, err)
	}
	after := report.Take(sim)
	w := report.Delta(before, after)

	if c.sup.CheckpointPath != "" {
		if err := sim.WriteCheckpoint(c.sup.CheckpointPath); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "ossmt: checkpoint written to %s (cycle %d)\n", c.sup.CheckpointPath, sim.Now())
	}
	if c.sup.AuditEvery > 0 {
		if err := sim.Audit(); err != nil {
			return fail(stderr, err)
		}
	}

	title := fmt.Sprintf("%s on %s (seed %d, warmup %d, measured %d cycles)",
		workload, sim.Opts.Processor, sim.Opts.Seed, c.warmup, c.cycles)
	fmt.Fprint(stdout, report.Summary(title, w))
	if c.perThread {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, report.PerProgram(sim))
	}
	return 0
}

// fail prints a structured error (watchdog trip, recovered panic, invariant
// audit failure — each already carries its diagnostics) and returns the
// nonzero exit code.
func fail(stderr io.Writer, err error) int {
	var (
		ll *faults.LivelockError
		dl *faults.DeadlineError
		pe *faults.PanicError
		ae *audit.Error
	)
	switch {
	case errors.As(err, &ll):
		fmt.Fprintln(stderr, "ossmt: watchdog tripped (livelock)")
	case errors.As(err, &dl):
		fmt.Fprintln(stderr, "ossmt: watchdog tripped (deadline)")
	case errors.As(err, &pe):
		fmt.Fprintln(stderr, "ossmt: simulation panic (recovered)")
	case errors.As(err, &ae):
		fmt.Fprintln(stderr, "ossmt: invariant audit failed")
	}
	fmt.Fprintln(stderr, err)
	return 1
}
