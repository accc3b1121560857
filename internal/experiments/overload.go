package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/report"
)

func init() {
	register("ablation-overload", "Ablation: offered load vs throughput under overload (backlog + idle reaping)", ablationOverload)
}

// Client counts treated as 1x offered load in the overload sweep — the
// capacity knee of each machine at the sweep's scales. Capacity is a
// property of the processor: the paper's SMT serves several times the
// superscalar's request rate, so "10x capacity" is a different absolute
// client count on each.
const (
	baseOverloadClientsSMT = 32
	baseOverloadClientsSS  = 8
)

// checkedWindow is window() on a built simulator with the simulation
// guardrails on: outside a supervised sweep it advances through RunChecked,
// so a livelock, deadline, or invariant panic surfaces as a structured
// error instead of a wedged or corrupted run. Supervised sweeps already
// route every step through the supervisor's own RunChecked.
func (ev *env) checkedWindow(sim *core.Simulator, sc Scale) (report.Snapshot, error) {
	if ev.sup != nil {
		return ev.run(sim, sc), nil
	}
	ctx := context.Background()
	if err := sim.RunChecked(ctx, sc.Warmup); err != nil {
		return report.Snapshot{}, err
	}
	a := report.Take(sim)
	if err := sim.RunChecked(ctx, sc.Measure); err != nil {
		return report.Snapshot{}, err
	}
	return report.Delta(a, report.Take(sim)), nil
}

// ablationOverload sweeps offered load from 0.5x to 10x of the nominal
// capacity point on both processors, with the full overload client mix
// active (slow-trickle senders, keep-alive storms, flash-crowd bursts) and
// the kernel's overload controls on (bounded accept backlog, idle reaping).
// The shape under test: completed-request throughput rises to the capacity
// knee and then plateaus — excess offered load is shed at the backlog and
// by the reaper rather than dragging completed work down — and the whole
// sweep runs under the watchdog without a single trip.
func ablationOverload(ev *env, sc Scale, seed uint64) Result {
	t := report.NewTable("proc", "load", "clients", "done", "refused",
		"idle-reap", "slow-reap", "p50", "p99", "p999")
	vals := map[string]float64{}
	trips := 0
	for _, p := range []core.ProcessorKind{core.SMT, core.Superscalar} {
		tag := "smt"
		scP := sc
		// All tick-denominated overload parameters scale with the
		// processor's service rate: a timeout that is generous on the SMT
		// machine mistakes normal in-service waits for stalls on the slower
		// baseline, reaping healthy connections (the classic too-aggressive-
		// timeout collapse), so the sweep tunes them per machine like an
		// operator would.
		tickScale := 1
		base := baseOverloadClientsSMT
		if p == core.Superscalar {
			tag = "ss"
			base = baseOverloadClientsSS
			// The one-context baseline retires a few times slower on Apache
			// (the paper's central result); give it a proportionally longer
			// window so each row measures enough served work to show the
			// plateau rather than an all-zero column.
			tickScale = 4
			scP.Warmup *= 4
			scP.Measure *= 4
		}
		peak, last := 0.0, 0.0
		for _, load := range []struct {
			label string
			mult  float64
		}{{"0.5x", 0.5}, {"1x", 1}, {"2x", 2}, {"5x", 5}, {"10x", 10}} {
			nc := int(float64(base) * load.mult)
			bs := nc / 8
			if bs < 2 {
				bs = 2
			}
			sim := apacheConfig(scP, seed, core.Options{
				Processor:         p,
				Clients:           nc,
				KeepAliveRequests: 4,
				AcceptBacklog:     32,
				IdleTimeoutTicks:  4 * tickScale,
				Faults: faults.Config{
					SlowClientRate:  0.10,
					TrickleTicks:    2 * tickScale,
					StormClientRate: 0.10,
					StormHoldTicks:  5 * tickScale,
					BurstEvery:      3 * tickScale,
					BurstSize:       bs,
				},
			}).build()
			w, err := ev.checkedWindow(sim, scP)
			if err != nil {
				trips++
				t.Row(tag, load.label, fmt.Sprintf("%d", nc),
					"trip", "-", "-", "-", "-", "-", "-")
				continue
			}
			done := float64(w.NetCompleted)
			if done > peak {
				peak = done
			}
			last = done
			t.Row(tag, load.label, fmt.Sprintf("%d", nc),
				report.I(w.NetCompleted), report.I(w.ConnsRefused),
				report.I(w.ReapedIdle), report.I(w.ReapedSlowloris),
				report.I(w.Latency.Quantile(0.50)), report.I(w.Latency.Quantile(0.99)),
				report.I(w.Latency.Quantile(0.999)))
		}
		vals[tag+"Peak"] = peak
		vals[tag+"Done10x"] = last
	}
	vals["watchdogTrips"] = float64(trips)
	text := t.String() + "\nPast the capacity knee the server sheds load instead of collapsing: SYNs\n" +
		"over the backlog bound are refused (clients recover via retransmit),\n" +
		"stalled and idle-parked connections are reaped on the idle timer, and\n" +
		"completed throughput plateaus while tail latency absorbs the pressure.\n"
	return Result{Text: text, Values: vals}
}
