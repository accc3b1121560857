package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/report"
)

func init() {
	register("ablation-loss", "Ablation: network loss rate vs throughput (retry/backoff)", ablationLoss)
	register("ablation-crash", "Ablation: Apache worker crash rate vs recovery cost", ablationCrash)
}

// ablationLoss sweeps the wire's frame-loss probability and shows how the
// client retry/backoff machinery converts loss into latency: requests still
// complete, but each drop costs a timeout plus a retransmission, and the
// network side of the kernel does the protocol work twice.
func ablationLoss(ev *env, sc Scale, seed uint64) Result {
	t := report.NewTable("loss", "IPC", "done", "retransmits", "resets", "aborted", "dropped")
	vals := map[string]float64{}
	for _, loss := range []float64{0, 0.02, 0.05, 0.10} {
		conf := apacheConfig(sc, seed, core.Options{
			Faults: faults.Config{LossRate: loss},
		})
		w := ev.window(conf, sc)
		t.Row(fmt.Sprintf("%.2f", loss), report.F2(w.IPC()), report.I(w.NetCompleted),
			report.I(w.NetRetransmits), report.I(w.NetResets), report.I(w.NetAborted),
			report.I(w.FramesDropped))
		key := fmt.Sprintf("done%.0f", loss*100)
		vals[key] = float64(w.NetCompleted)
		vals[fmt.Sprintf("retx%.0f", loss*100)] = float64(w.NetRetransmits)
	}
	text := t.String() + "\nEvery dropped frame costs the client a timeout (capped exponential backoff)\n" +
		"and the server a duplicate of the protocol-stack work; throughput degrades\n" +
		"gracefully rather than wedging, because retransmits re-open lost connections.\n"
	return Result{Text: text, Values: vals}
}

// ablationCrash sweeps the per-syscall worker crash probability: each crash
// exercises the involuntary-exit path (lock release, socket reap, address-
// space teardown with ASN invalidation) plus a re-fork, and the client
// answers the mid-request reset with a fresh connection.
func ablationCrash(ev *env, sc Scale, seed uint64) Result {
	t := report.NewTable("crashrate", "IPC", "done", "crashes", "respawns", "resets", "asn-recycles")
	vals := map[string]float64{}
	for _, cr := range []float64{0, 0.0005, 0.002, 0.01} {
		conf := apacheConfig(sc, seed, core.Options{
			Faults: faults.Config{CrashRate: cr},
		})
		w := ev.window(conf, sc)
		t.Row(fmt.Sprintf("%.4f", cr), report.F2(w.IPC()), report.I(w.NetCompleted),
			report.I(w.WorkerCrashes), report.I(w.WorkerRespawns), report.I(w.NetResets),
			report.I(w.ASNRecycles))
		key := fmt.Sprintf("crashes%.0f", cr*10000)
		vals[key] = float64(w.WorkerCrashes)
		vals[fmt.Sprintf("done%.0f", cr*10000)] = float64(w.NetCompleted)
	}
	text := t.String() + "\nA crashed worker dies at a syscall boundary: its locks are released, its\n" +
		"sockets reset (the client reconnects), its address space torn down through\n" +
		"the same exit path a voluntary exit uses, and the master forks a fresh\n" +
		"worker — churning pids and ASNs, so sustained crash rates recycle ASNs.\n"
	return Result{Text: text, Values: vals}
}
