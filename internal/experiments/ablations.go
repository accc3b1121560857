package experiments

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sys"
)

func init() {
	register("ablation-fetch", "Ablation: ICOUNT 2.8 fetch vs round-robin", ablationFetch)
	register("ablation-contexts", "Ablation: hardware context count 1..8", ablationContexts)
	register("ablation-idle", "Ablation: halting vs spinning idle loop", ablationIdle)
	register("ablation-interrupt", "Ablation: network interrupt granularity", ablationInterrupt)
	register("ablation-procs", "Ablation: Apache server-process pool size", ablationProcs)
}

func ablationFetch(ev *env, sc Scale, seed uint64) Result {
	icount := ev.window(apacheConfig(sc, seed, core.Options{}), sc)
	rr := ev.window(apacheConfig(sc, seed, core.Options{RoundRobinFetch: true}), sc)
	t := report.NewTable("policy", "IPC", "squash%", "fetchable")
	t.Row("icount-2.8", report.F2(icount.IPC()), report.F1(icount.Metrics.SquashPct()), report.F1(icount.Metrics.AvgFetchable()))
	t.Row("round-robin", report.F2(rr.IPC()), report.F1(rr.Metrics.SquashPct()), report.F1(rr.Metrics.AvgFetchable()))
	text := t.String() + "\nICOUNT starves clogged contexts of fetch slots; round-robin feeds them anyway.\n"
	return Result{Text: text, Values: map[string]float64{
		"icountIPC": icount.IPC(), "rrIPC": rr.IPC(),
	}}
}

func ablationContexts(ev *env, sc Scale, seed uint64) Result {
	t := report.NewTable("contexts", "IPC", "kernel%", "fetchable")
	vals := map[string]float64{}
	for _, n := range []int{1, 2, 4, 8} {
		w := ev.window(apacheConfig(sc, seed, core.Options{Contexts: n}), sc)
		t.Row(fmt.Sprintf("%d", n), report.F2(w.IPC()), report.F1(w.CycleAt.KernelPct()), report.F1(w.Metrics.AvgFetchable()))
		vals[fmt.Sprintf("ipc%d", n)] = w.IPC()
	}
	text := t.String() + "\nThroughput scales with contexts as SMT converts thread-level into instruction-level parallelism.\n"
	return Result{Text: text, Values: vals}
}

func ablationIdle(ev *env, sc Scale, seed uint64) Result {
	// Half-loaded machine: 4 Apache processes on 8 contexts leaves idle
	// contexts whose spin loop competes for fetch slots.
	halt := ev.window(apacheConfig(sc, seed, core.Options{ServerProcesses: 4, Clients: 8}), sc)
	spin := ev.window(apacheConfig(sc, seed, core.Options{ServerProcesses: 4, Clients: 8, IdleSpin: true}), sc)
	t := report.NewTable("idle model", "IPC", "retired/kcycle")
	perK := func(w report.Snapshot) float64 {
		if w.Metrics.Cycles == 0 {
			return 0
		}
		return float64(w.Metrics.Retired) / float64(w.Metrics.Cycles) * 1000
	}
	t.Row("halting", report.F2(halt.IPC()), report.F1(perK(halt)))
	t.Row("spinning", report.F2(spin.IPC()), report.F1(perK(spin)))
	text := t.String() + "\nThe paper (§2.2.2): the idle loop is unnecessary work that wastes SMT resources.\n" +
		"(Spinning inflates IPC with useless idle instructions while stealing fetch slots from real work.)\n"
	return Result{Text: text, Values: map[string]float64{
		"haltIPC": halt.IPC(), "spinIPC": spin.IPC(),
	}}
}

func ablationInterrupt(ev *env, sc Scale, seed uint64) Result {
	t := report.NewTable("interval(cycles)", "IPC", "requests done", "netisr%")
	vals := map[string]float64{}
	for _, iv := range []uint64{sc.Interval / 2, sc.Interval, sc.Interval * 2} {
		w := ev.window(simConfig{"apache", core.Options{Seed: seed, CyclesPer10ms: iv, Sampling: sc.Sampling}}, sc)
		t.Row(fmt.Sprintf("%d", iv), report.F2(w.IPC()), report.I(w.NetCompleted),
			report.F1(w.CycleAt.PctCat(sys.CatNetisr)))
		vals[fmt.Sprintf("done%d", iv)] = float64(w.NetCompleted)
	}
	text := t.String() + "\nCoarser interrupt granularity batches request arrivals and delays responses.\n"
	return Result{Text: text, Values: vals}
}

func ablationProcs(ev *env, sc Scale, seed uint64) Result {
	t := report.NewTable("server processes", "IPC", "requests done", "kernel%")
	vals := map[string]float64{}
	for _, n := range []int{8, 16, 32, 64} {
		w := ev.window(apacheConfig(sc, seed, core.Options{ServerProcesses: n}), sc)
		t.Row(fmt.Sprintf("%d", n), report.F2(w.IPC()), report.I(w.NetCompleted), report.F1(w.CycleAt.KernelPct()))
		vals[fmt.Sprintf("done%d", n)] = float64(w.NetCompleted)
	}
	text := t.String() + "\nThe paper runs 64 processes; fewer processes leave contexts idle when requests block.\n"
	return Result{Text: text, Values: vals}
}

func init() {
	register("ablation-dma", "Ablation: network-interface DMA on the memory bus (§2.2.1 omission)", ablationDMA)
	register("ablation-affinity", "Ablation: FIFO vs cache-affinity scheduling (OS-optimization future work)", ablationAffinity)
}

func ablationDMA(ev *env, sc Scale, seed uint64) Result {
	off := ev.window(apacheConfig(sc, seed, core.Options{}), sc)
	on := ev.window(apacheConfig(sc, seed, core.Options{ModelNetworkDMA: true}), sc)
	t := report.NewTable("network DMA", "IPC", "requests done", "L2 miss%")
	t.Row("omitted (paper)", report.F2(off.IPC()), report.I(off.NetCompleted), report.F2(off.L2.MissRateOverall()))
	t.Row("modeled", report.F2(on.IPC()), report.I(on.NetCompleted), report.F2(on.L2.MissRateOverall()))
	text := t.String() + "\nThe paper omits NIC DMA, arguing average memory-bus delay stays insignificant;\n" +
		"modeling it here should (and does) barely move the bottom line.\n"
	return Result{Text: text, Values: map[string]float64{
		"ipcOff": off.IPC(), "ipcOn": on.IPC(),
	}}
}

func ablationAffinity(ev *env, sc Scale, seed uint64) Result {
	// Oversubscribed machine so scheduling decisions matter: 64 processes
	// with frequent preemption on 8 contexts.
	fifo := ev.window(apacheConfig(sc, seed, core.Options{}), sc)
	aff := ev.window(apacheConfig(sc, seed, core.Options{AffinityScheduler: true}), sc)
	t := report.NewTable("scheduler", "IPC", "requests done", "L1D miss%", "DTLB miss%")
	t.Row("fifo (paper's MP scheduler)", report.F2(fifo.IPC()), report.I(fifo.NetCompleted),
		report.F2(fifo.L1D.MissRateOverall()), report.F2(fifo.DTLB.MissRateOverall()))
	t.Row("cache-affinity", report.F2(aff.IPC()), report.I(aff.NetCompleted),
		report.F2(aff.L1D.MissRateOverall()), report.F2(aff.DTLB.MissRateOverall()))
	text := t.String() + "\nThe paper leaves SMT-aware scheduling as future work (§2.2.2); this is the\n" +
		"simplest such policy: keep a thread on the context whose caches it warmed.\n"
	return Result{Text: text, Values: map[string]float64{
		"fifoIPC": fifo.IPC(), "affinityIPC": aff.IPC(),
	}}
}

func init() {
	register("ablation-keepalive", "Ablation: one-request connections vs HTTP/1.1 keep-alive", ablationKeepAlive)
}

func ablationKeepAlive(ev *env, sc Scale, seed uint64) Result {
	one := ev.window(apacheConfig(sc, seed, core.Options{}), sc)
	ka := ev.window(apacheConfig(sc, seed, core.Options{KeepAliveRequests: 8}), sc)
	t := report.NewTable("connections", "IPC", "requests done", "accept cyc%", "netisr%")
	rowFor := func(label string, w report.Snapshot) {
		t.Row(label, report.F2(w.IPC()), report.I(w.NetCompleted),
			report.F1(w.CycleAt.PctSyscall(sys.SysAccept)),
			report.F1(w.CycleAt.PctCat(sys.CatNetisr)))
	}
	rowFor("1 request/conn (paper)", one)
	rowFor("8 requests/conn (keep-alive)", ka)
	text := t.String() + "\nPersistent connections amortize accept/connection setup across requests —\n" +
		"a server-structure change the paper's per-request syscall profile (Fig. 7) motivates.\n"
	return Result{Text: text, Values: map[string]float64{
		"oneIPC": one.IPC(), "kaIPC": ka.IPC(),
		"oneDone": float64(one.NetCompleted), "kaDone": float64(ka.NetCompleted),
	}}
}

func init() {
	register("ablation-sampling", "Ablation: sampled simulation vs full detail (Fig 1 / Fig 5 headline metrics)", ablationSampling)
	register("ablation-diskbound", "Ablation: cached vs disk-bound fileset (§2.2.1 speculation)", ablationDiskBound)
}

// runToRetired advances sim in small chunks until at least target
// instructions have retired; chunked so supervised runs keep auditing and
// checkpointing on schedule.
func (ev *env) runToRetired(sim *core.Simulator, target uint64) {
	for sim.Engine.Metrics.Retired < target {
		ev.advance(sim, 5_000)
	}
}

// ablationSampling validates the sampled-simulation mode: for each workload
// it measures the paper's headline kernel-time share (Fig 1 steady state for
// SPECInt, Fig 5 for Apache) once in sampled mode and once in full detail,
// and checks the sampled estimate lands within its own 4-standard-error
// band. The full-detail arm replays the same retired-instruction region the
// sampled arm measured: fast-forward compresses simulated time, so a
// cycle-aligned comparison would contrast different program phases.
func ablationSampling(ev *env, sc Scale, seed uint64) Result {
	t := report.NewTable("workload", "metric", "full", "sampled", "err", "band", "verdict")
	vals := map[string]float64{}
	for _, wl := range []struct {
		name, metric string
		build        func(core.Options) *core.Simulator
	}{
		{"specint", "fig1 steady kernel%", core.NewSPECInt},
		{"apache", "fig5 kernel%", core.NewApache},
	} {
		base := core.Options{Seed: seed, CyclesPer10ms: sc.Interval}
		so := base
		so.Sampling = core.Sampling{Period: sc.Interval}
		sampled := wl.build(so)
		ev.advance(sampled, sc.Warmup)
		a := report.Take(sampled)
		ev.advance(sampled, sc.Measure)
		b := report.Take(sampled)
		d := report.Delta(a, b)
		sampledPct := d.CycleAt.KernelPct()

		full := wl.build(base)
		ev.runToRetired(full, a.Metrics.Retired)
		fa := report.Take(full)
		ev.runToRetired(full, b.Metrics.Retired)
		fb := report.Take(full)
		fd := report.Delta(fa, fb)
		fullPct := fd.CycleAt.KernelPct()

		band := 4 * d.Sampling.KernelPct.StdErr()
		if band < 5 {
			band = 5 // absolute floor when the per-window stderr is tiny
		}
		errAbs := math.Abs(sampledPct - fullPct)
		within, verdict := 0.0, "OUTSIDE BAND"
		if errAbs <= band {
			within, verdict = 1, "within"
		}
		t.Row(wl.name, wl.metric, report.F1(fullPct), report.F1(sampledPct),
			report.F1(errAbs), report.F1(band), verdict)
		vals[wl.name+"FullKernelPct"] = fullPct
		vals[wl.name+"SampledKernelPct"] = sampledPct
		vals[wl.name+"Err"] = errAbs
		vals[wl.name+"Band"] = band
		vals[wl.name+"Within"] = within
	}
	text := t.String() + "\nThe sampled arm fast-forwards between detailed windows (warming caches,\n" +
		"TLBs and branch predictors functionally); the full arm replays the same\n" +
		"instruction region in detail. Err is the absolute difference, band is\n" +
		"max(4 stderr, 5 points) from the sampled run's own window estimator.\n"
	return Result{Text: text, Values: vals}
}

func ablationDiskBound(ev *env, sc Scale, seed uint64) Result {
	cached := ev.window(apacheConfig(sc, seed, core.Options{}), sc)
	bound := ev.window(apacheConfig(sc, seed, core.Options{BufferCacheHitRate: 0.3}), sc)
	t := report.NewTable("fileset", "IPC", "requests done", "read cyc%", "L1D miss%")
	rowFor := func(label string, w report.Snapshot) {
		t.Row(label, report.F2(w.IPC()), report.I(w.NetCompleted),
			report.F1(w.CycleAt.PctSyscall(sys.SysRead)),
			report.F2(w.L1D.MissRateOverall()))
	}
	rowFor("mostly cached (paper)", cached)
	rowFor("disk-bound (30% hit)", bound)
	text := t.String() + "\nThe paper simulates a large fast disk array (zero latency) and notes a\n" +
		"disk-bound machine could alter behavior; here cache misses still cost the\n" +
		"driver path and DMA even though the disk itself stays free.\n"
	return Result{Text: text, Values: map[string]float64{
		"cachedIPC": cached.IPC(), "boundIPC": bound.IPC(),
	}}
}
