// The experiment runner. Every artifact is produced by Execute: a Plan names
// the experiments, the scale, the seeds, the worker count, and whether the
// jobs run supervised or regenerate from a checkpoint library. Every
// (experiment, seed) job is fully seeded and isolated — it builds its own
// simulators and, when supervised, its own supervisor — so jobs execute on a
// bounded worker pool with no shared mutable state. Determinism is preserved
// by construction: workers only decide *when* a job runs, never what it
// computes, and outcomes are collected into a slice indexed by job position,
// so the bytes rendered from them are identical for any worker count.
//
// This package is deliberately outside detlint's nogoroutine scope: the
// analyzer pins the cycle-level core (pipeline, kernel, core, mem, cache,
// tlb, bpred) to straight-line code, while whole-simulation fan-out like
// this lives a layer above, where goroutine interleaving cannot reach
// simulated time.
package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"
)

// Plan is one experiment sweep: every (id, seed) pair is one job.
type Plan struct {
	// IDs are the experiments to run, in output order (nil = IDs()).
	IDs []string
	// Scale is the cycle budget of every job.
	Scale Scale
	// Seed is the first seed; each id runs with Seed, Seed+1, ...,
	// Seed+Seeds-1. Seeds must be at least 1.
	Seed  uint64
	Seeds int
	// Workers bounds the jobs running at once (at least 1). Under a
	// Library the jobs run one at a time: the parallelism lives inside the
	// window jobs.
	Workers int
	// Supervise runs every job under its own supervisor, filling
	// Outcome.Status. A nonzero Timeout (per-job wall-clock budget, with
	// one checkpoint-resumed retry on a trip) or AuditEvery (invariant
	// audits every N cycles) implies it.
	Supervise  bool
	Timeout    time.Duration
	AuditEvery uint64
	// Library, when set, regenerates every job from checkpoint-library
	// windows instead of running its simulations; Scale.Sampling must be
	// enabled (see WindowedSampling). Supervision does not apply to
	// library windows, so the two exclude each other.
	Library *WindowRunner
}

// Outcome is the result of one job.
type Outcome struct {
	ID   string
	Seed uint64
	Res  Result
	// Status describes the supervised run (zero unless supervised).
	Status RunStatus
	// Err is set when the job could not run at all (an unknown id).
	Err error
}

// Supervised reports whether the plan's jobs run under a supervisor.
func (p Plan) Supervised() bool {
	return p.Supervise || p.Timeout > 0 || p.AuditEvery > 0
}

func (p Plan) validate() error {
	switch {
	case p.Seeds < 1:
		return fmt.Errorf("experiments: seed count must be at least 1 (got %d)", p.Seeds)
	case p.Workers < 1:
		return fmt.Errorf("experiments: worker count must be at least 1 (got %d)", p.Workers)
	case p.Library != nil && !p.Scale.Sampling.Enabled():
		return errors.New("experiments: windowed regeneration needs sampling enabled (see WindowedSampling)")
	case p.Library != nil && p.Supervised():
		return errors.New("experiments: supervision (JSON status, timeout, audits) does not run on checkpoint-library windows")
	}
	return nil
}

// Execute validates the plan and runs its jobs, returning one outcome per
// job, id-major and seed-minor. A plan error means nothing ran; a job that
// cannot run reports its own Err in position.
func Execute(p Plan) ([]Outcome, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	ids := p.IDs
	if ids == nil {
		ids = IDs()
	}
	out := make([]Outcome, 0, len(ids)*p.Seeds)
	for _, id := range ids {
		for j := 0; j < p.Seeds; j++ {
			out = append(out, Outcome{ID: id, Seed: p.Seed + uint64(j)})
		}
	}
	workers := p.Workers
	if p.Library != nil {
		workers = 1
	}
	forEach(len(out), workers, func(i int) { p.run(&out[i]) })
	return out, nil
}

// run executes one job in place.
func (p Plan) run(o *Outcome) {
	r, ok := registry[o.ID]
	if !ok {
		o.Err = fmt.Errorf("experiments: unknown id %q (have %v)", o.ID, IDs())
		return
	}
	if p.Supervised() {
		o.Res, o.Status = supervise(r, o.ID, p.Scale, o.Seed, p.Timeout, p.AuditEvery)
	} else {
		o.Res = r.fn(&env{win: p.Library}, p.Scale, o.Seed)
	}
	o.Res.ID, o.Res.Title = o.ID, r.title
}

// Render renders outcomes in order as the "################ id — title"
// report; a job that could not run renders as one "id: error" line.
func Render(out []Outcome) string {
	var b strings.Builder
	for _, o := range out {
		if o.Err != nil {
			fmt.Fprintf(&b, "%s: %v\n", o.ID, o.Err)
			continue
		}
		fmt.Fprintf(&b, "################ %s — %s\n\n%s\n", o.ID, o.Res.Title, o.Res.Text)
	}
	return b.String()
}

// forEach invokes fn(i) for every i in [0,n) using at most workers
// goroutines, blocking until all calls return. fn writes its result into a
// caller-owned slot at index i, so completion order never leaks into
// output order. workers <= 1 degenerates to a plain serial loop.
func forEach(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
