// Supervised experiment runs: a wall-clock deadline around each experiment,
// periodic invariant audits, in-memory auto-checkpoints at every step
// boundary, and — when the deadline trips — one retry that fast-forwards
// through the already-completed steps by restoring their checkpoints instead
// of re-simulating them. An experiment that still cannot finish yields a
// partial result (whatever windows did complete) plus a structured status,
// so one pathological configuration cannot sink a whole sweep.
package experiments

import (
	"context"
	"errors"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/faults"
)

// RunStatus describes how a supervised experiment run went.
type RunStatus struct {
	// ID is the experiment id.
	ID string
	// OK is true when every simulation step completed.
	OK bool
	// Partial is true when the result was rendered from incomplete runs.
	Partial bool
	// Retried is true when the run was retried after a deadline trip.
	Retried bool
	// Error is the final failure ("" when OK).
	Error string
	// Audits counts periodic invariant audits that ran clean.
	Audits uint64
	// Checkpoints counts step-boundary checkpoints memoized for resume.
	Checkpoints uint64
	// FaultCrashes / FramesDropped total the injector activity across the
	// experiment's fault-enabled simulations (zero otherwise).
	FaultCrashes  uint64
	FramesDropped uint64
}

// supervisor threads deadline, audits, and checkpoint memoization through
// an experiment's simulation steps. Experiment functions are deterministic,
// so a step's ordinal identifies it across attempts: on retry, steps whose
// checkpoint image is memoized are restored instead of re-simulated.
type supervisor struct {
	ctx        context.Context
	auditEvery uint64
	calls      int
	images     map[int]*checkpoint.Image
	failed     error
	audits     uint64
	ckpts      uint64
	faultBySim map[*core.Simulator]faultCounts
}

// faultCounts is the injector counters a run status reports.
type faultCounts struct {
	crashes, dropped uint64
}

// step advances sim by n cycles under supervision.
func (s *supervisor) step(sim *core.Simulator, n uint64) {
	ord := s.calls
	s.calls++
	if img, ok := s.images[ord]; ok {
		// A previous attempt completed this step: jump straight to its
		// end state instead of re-simulating.
		if err := sim.RestoreInto(img); err == nil {
			s.noteFaults(sim)
			return
		}
		delete(s.images, ord)
	}
	if s.failed != nil {
		// A prior step already failed this attempt; rendering continues
		// on the partial state, but no further cycles run.
		return
	}
	sim.Sup.AuditEvery = s.auditEvery
	err := sim.RunChecked(s.ctx, n)
	s.audits += sim.Sup.Audits
	sim.Sup.Audits = 0
	s.noteFaults(sim)
	if err != nil {
		s.failed = err
		return
	}
	if img, cerr := sim.Checkpoint(); cerr == nil {
		s.images[ord] = img
		s.ckpts++
	}
}

// noteFaults records the latest injector counters for sim (keyed by the
// simulator, so multi-step experiments are not double-counted).
func (s *supervisor) noteFaults(sim *core.Simulator) {
	if sim.Faults != nil {
		f := sim.Faults
		s.faultBySim[sim] = faultCounts{crashes: f.Crashes, dropped: f.DroppedToServer + f.DroppedToClient}
	}
}

// supervise runs one experiment under a per-experiment timeout (0 = none)
// with invariant audits every auditEvery cycles (0 = off). On a deadline
// trip it retries once, resuming completed steps from their checkpoints.
// The Result is always rendered — marked Partial in the status when some
// steps never finished.
func supervise(r runner, id string, sc Scale, seed uint64, timeout time.Duration, auditEvery uint64) (Result, RunStatus) {
	st := RunStatus{ID: id}
	images := map[int]*checkpoint.Image{}

	attempt := func() (Result, *supervisor) {
		ctx := context.Background()
		if timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, timeout)
			defer cancel()
		}
		s := &supervisor{
			ctx:        ctx,
			auditEvery: auditEvery,
			images:     images,
			faultBySim: map[*core.Simulator]faultCounts{},
		}
		return r.fn(&env{sup: s}, sc, seed), s
	}

	res, s := attempt()
	var dl *faults.DeadlineError
	if s.failed != nil && errors.As(s.failed, &dl) {
		// Deadline trips are the retryable class: the budget may simply
		// have been too tight for a cold start, and completed steps now
		// resume from their checkpoints.
		st.Retried = true
		res, s = attempt()
	}
	st.Audits = s.audits
	st.Checkpoints = s.ckpts
	for _, fs := range s.faultBySim {
		st.FaultCrashes += fs.crashes
		st.FramesDropped += fs.dropped
	}
	if s.failed != nil {
		st.Partial = true
		st.Error = s.failed.Error()
		return res, st
	}
	st.OK = true
	return res, st
}
