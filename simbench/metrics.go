package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/report"
)

// endToEnd computes the metrics a user of the simulator sees, from the
// untraced ops. Times are scaled to the yardstick's reference speed
// (yardstick.go): setupYardMs and opYardMs are the yardstick's median
// times around the set-ups and around the ops.
func endToEnd(setups []time.Duration, ops []opSample, setupYardMs, opYardMs float64) map[string]metric {
	var su []float64
	for _, d := range setups {
		su = append(su, d.Seconds())
	}
	return map[string]metric{
		"op_ms":         {yardstickRefMs / opYardMs * medianOf(ops, false, func(o opSample) float64 { return durMs(o.wall) }), "ms"},
		"setup_s":       {yardstickRefMs / setupYardMs * median(su), "s"},
		"alloc_mib":     {medianOf(ops, false, func(o opSample) float64 { return mib(o.alloc) }), "MiB"},
		"live_heap_mib": {medianOf(ops, false, func(o opSample) float64 { return mib(o.live) }), "MiB"},
	}
}

// perLayer computes the per-layer metrics of a traced run and reports
// whether spans and profile reconcile with the ops' wall time.
func perLayer(wl workload, ref opResult, ops []opSample, yardMs float64, tr *tracer,
	setupSplit, opSplit *hostSplit, log io.Writer) (map[string]metric, bool) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	w := ref.w

	// Spans: per-op and per-setup means of the direct children of the
	// "op" and "setup" spans. A call the benchmark cannot wrap itself
	// (figure-regen reaches the simulator through experiments) is timed
	// by its inclusive CPU-profile time instead.
	opChild, setupChild := map[string]time.Duration{}, map[string]time.Duration{}
	var opWall, covered time.Duration
	nOps, nSetups := 0, 0
	for i, s := range tr.spans {
		switch s.name {
		case "op":
			by, total := tr.children(i)
			for k, v := range by {
				opChild[k] += v
			}
			opWall += s.dur()
			covered += total
			nOps++
		case "setup":
			by, _ := tr.children(i)
			for k, v := range by {
				setupChild[k] += v
			}
			nSetups++
		}
	}
	perOpMs := func(name string) float64 {
		if d, ok := opChild[name]; ok {
			return durMs(d) / float64(nOps)
		}
		return float64(opSplit.inclusive[name]) / 1e6 / float64(nOps)
	}
	perSetupMs := func(name string) float64 {
		if d, ok := setupChild[name]; ok {
			return durMs(d) / float64(nSetups)
		}
		return float64(setupSplit.inclusive[name]) / 1e6 / float64(nSetups)
	}
	set("core.new_ms", perSetupMs("core.New"), "ms")
	set("core.checkpoint_ms", perSetupMs("core.Checkpoint"), "ms")
	set("experiments.library_build_s", durMs(setupChild["experiments.BuildLibrary"])/1e3/float64(nSetups), "s")
	set("core.restore_ms", perOpMs("core.RestoreInto"), "ms")
	set("core.run_ms", perOpMs("core.Run"), "ms")
	set("core.audit_ms", perOpMs("core.Audit"), "ms")
	set("report.take_ms", perOpMs("report.Take")+perOpMs("report.Delta"), "ms")
	set("experiments.render_ms", durMs(opChild["experiments.RenderWindowed"])/float64(nOps), "ms")

	// Host split of the traced ops' CPU profiles.
	for _, l := range layers {
		set(l+".host_pct", opSplit.pct(l), "%")
	}
	set("runtime.gc_pct", opSplit.pct(ownerGC), "%")
	set("runtime.other_pct", opSplit.pct(ownerRT), "%")
	set("other.host_pct", opSplit.pct(ownerOther), "%")

	// Host ns per simulated event: a layer's profiled time per op over the
	// op's count of that event.
	nsPer := func(layer string, events uint64) float64 {
		if events == 0 {
			return 0
		}
		return float64(opSplit.byOwner[layer]) / float64(nOps) / float64(events)
	}
	insts := func(priv int) (n uint64) {
		for _, c := range w.Mix.Count[priv] {
			n += c
		}
		return n
	}
	var syscalls uint64
	for _, c := range w.SyscallCount {
		syscalls += c
	}
	ticks := w.ClockInterrupts + w.NetInterrupts
	set("pipeline.ns_per_cycle", nsPer("pipeline", ref.cycles), "ns")
	set("cache.ns_per_access", nsPer("cache", accesses(w.L1I, w.L1D, w.L2)), "ns")
	set("tlb.ns_per_access", nsPer("tlb", accesses(w.ITLB, w.DTLB)), "ns")
	set("bpred.ns_per_lookup", nsPer("bpred", w.BpLookups[0]+w.BpLookups[1]), "ns")
	set("workload.ns_per_inst", nsPer("workload", insts(0)), "ns")
	set("kernel.ns_per_inst", nsPer("kernel", insts(1)), "ns")
	set("netsim.ns_per_tick", nsPer("netsim", ticks), "ns")

	// Simulated per-layer counts of the op; they repeat exactly at a seed.
	set("kernel.syscalls", float64(syscalls), "count")
	set("kernel.context_switches", float64(w.ContextSwitches), "count")
	set("netsim.ticks", float64(ticks), "count")
	set("netsim.p99_ticks", float64(w.Latency.Quantile(0.99)), "ticks")
	set("netsim.requests_done", float64(w.NetCompleted), "count")
	set("cache.l1d_miss_pct", w.L1D.MissRateOverall(), "%")
	set("cache.l2_miss_pct", w.L2.MissRateOverall(), "%")
	set("tlb.dtlb_miss_pct", w.DTLB.MissRateOverall(), "%")
	set("bpred.mispredict_pct", w.BpMispredictRate(), "%")
	retiredPerFetched := 0.0
	if w.Metrics.Fetched > 0 {
		retiredPerFetched = float64(w.Metrics.Retired) / float64(w.Metrics.Fetched)
	}
	set("pipeline.retired_per_fetched", retiredPerFetched, "ratio")
	set("pipeline.ipc", w.IPC(), "inst/cycle")
	set("pipeline.op_cycles", float64(ref.cycles), "cycles")
	detailPct := 100.0
	if s := w.Sampling; s.Enabled {
		detailPct = 100 * float64(s.DetailCycles) / float64(ref.cycles)
	}
	set("pipeline.detail_cycle_pct", detailPct, "%")
	set("checkpoint.image_mib", float64(wl.imageBytes())/(1<<20), "MiB")

	// Tracing overhead and reconciliation.
	untraced := medianOf(ops, false, func(o opSample) float64 { return durMs(o.wall) })
	tracedMs := medianOf(ops, true, func(o opSample) float64 { return durMs(o.wall) })
	overhead := 0.0
	if untraced > 0 {
		overhead = 100 * (tracedMs/untraced - 1)
	}
	set("trace.overhead_pct", overhead, "%")
	set("host.yardstick_ms", yardMs, "ms")
	set("host.unscaled_op_ms", untraced, "ms")
	unattributed, profiledPct := 0.0, 0.0
	if opWall > 0 {
		unattributed = 100 * float64(opWall-covered) / float64(opWall)
		profiledPct = 100 * float64(opSplit.total) / float64(opWall)
	}
	set("trace.unattributed_pct", unattributed, "%")
	set("trace.profiled_pct", profiledPct, "%")
	ok := unattributed <= maxUnattributedPct && profiledPct >= minProfiledPct && profiledPct <= maxProfiledPct
	if !ok {
		fmt.Fprintf(log, "trace does not reconcile: unattributed %.1f%% (max %d), profiled %.1f%% of op time (want %d..%d)\n",
			unattributed, maxUnattributedPct, profiledPct, minProfiledPct, maxProfiledPct)
	}
	return m, ok
}

// accesses sums the accesses of cache-like structures.
func accesses(ss ...report.StructStats) (n uint64) {
	for _, s := range ss {
		n += s.Accesses[0] + s.Accesses[1]
	}
	return n
}
