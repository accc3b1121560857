package experiments

import (
	"fmt"
	"strings"

	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/report"
	"repro/internal/sys"
)

func init() {
	register("fig5", "Figure 5: kernel and user activity in Apache on SMT", fig5)
	register("fig6", "Figure 6: breakdown of kernel activity in Apache vs SPECInt", fig6)
	register("fig7", "Figure 7: Apache system-call time by name and by resource", fig7)
	register("tab5", "Table 5: Apache dynamic instruction mix", tab5)
	register("tab6", "Table 6: architectural metrics — Apache/SMT, SPECInt/SMT, Apache/superscalar", tab6)
	register("tab7", "Table 7: Apache miss-cause distribution", tab7)
	register("tab8", "Table 8: misses avoided by interthread cooperation (Apache)", tab8)
	register("tab9", "Table 9: impact of the OS on hardware structures (Apache)", tab9)
}

func fig5(ev *env, sc Scale, seed uint64) Result {
	sim := apacheSim(sc, seed, core.Options{})
	t := report.NewTable("cycles(k)", "user%", "kernel%", "pal%", "idle%")
	var lastKernel float64
	for _, sw := range ev.steps(sim, sc, 12) {
		w := sw.w
		lastKernel = w.CycleAt.PctMode(isa.Kernel) + w.CycleAt.PctMode(isa.PAL)
		t.Row(report.I(sw.end/1000),
			report.F1(w.CycleAt.PctMode(isa.User)),
			report.F1(w.CycleAt.PctMode(isa.Kernel)),
			report.F1(w.CycleAt.PctMode(isa.PAL)),
			report.F1(w.CycleAt.PctCat(sys.CatIdle)))
	}
	text := t.String() + paperNote(
		"Apache has almost no start-up phase",
		"once requests arrive, over 75% of cycles are spent in the OS")
	return Result{Text: text, Values: map[string]float64{"kernelPct": lastKernel}}
}

func fig6(ev *env, sc Scale, seed uint64) Result {
	ap := apacheSim(sc, seed, core.Options{})
	apW := ev.window(ap, sc)
	sp := specSim(sc, seed, core.Options{})
	spStart, spSteady := ev.phases(sp, sc)

	t := report.NewTable("workload", "syscall%", "dtlb%", "itlb%", "intr%", "netisr%", "sched%", "spin%", "other%", "pal%")
	kernelBreakdownRows(t, "apache", apW)
	kernelBreakdownRows(t, "spec-startup", spStart)
	kernelBreakdownRows(t, "spec-steady", spSteady)

	netShare := apW.CycleAt.PctCat(sys.CatNetisr) + apW.CycleAt.PctCat(sys.CatInterrupt)
	text := t.String() + paperNote(
		"Apache: 57% of kernel time in system calls; 34% of kernel cycles in interrupts+netisr (26% of all cycles)",
		"Apache DTLB handling only ~13% of kernel time, vs 82% for steady-state SPECInt",
		"SPECInt kernel time is dominated by TLB-miss handling")
	return Result{Text: text, Values: map[string]float64{
		"apacheSyscallPct": apW.CycleAt.PctCat(sys.CatSyscall),
		"apacheNetPct":     netShare,
		"apacheDTLBPct":    apW.CycleAt.PctCat(sys.CatDTLB),
		"apacheKernelPct":  apW.CycleAt.KernelPct(),
		"apacheSpinPct":    apW.CycleAt.PctCat(sys.CatSpin),
		"specSpinPct":      max(spStart.CycleAt.PctCat(sys.CatSpin), spSteady.CycleAt.PctCat(sys.CatSpin)),
	}}
}

func fig7(ev *env, sc Scale, seed uint64) Result {
	sim := apacheSim(sc, seed, core.Options{})
	// phases covers the whole span, so startup+steady telescopes to the same
	// full-run service-instruction totals the resource chart needs, while
	// the syscall table keeps using the steady (measured) window.
	startup, steady := ev.phases(sim, sc)
	w := steady

	t := report.NewTable("syscall", "% of all cycles")
	for n := uint16(1); n < sys.NumSyscalls; n++ {
		p := w.CycleAt.PctSyscall(n)
		if p < 0.05 {
			continue
		}
		t.Row(sys.Name(n), report.F1(p))
	}
	t.Row("(kernel preamble+PAL in each)", "")

	// Right-hand chart: group service work by resource (instruction-count
	// proxy over the same window).
	var res [5]uint64
	var resTotal uint64
	for i := range res {
		res[i] = startup.SvcInstByRes[i] + steady.SvcInstByRes[i]
		resTotal += res[i]
	}
	t2 := report.NewTable("resource", "% of service instructions")
	var netPct, filePct float64
	for i := range res {
		if resTotal == 0 {
			break
		}
		p := 100 * float64(res[i]) / float64(resTotal)
		switch sys.Resource(i) {
		case sys.ResNet:
			netPct = p
		case sys.ResFile:
			filePct = p
		}
		t2.Row(sys.Resource(i).String(), report.F1(p))
	}
	text := t.String() + "\n" + t2.String() + paperNote(
		"stat ~10% of all cycles; read/write/writev ~19%; I/O control ~10%",
		"network read/write is the largest consumer (~17% of cycles)",
		"network and file syscall time are nearly balanced (21% vs 18% of kernel cycles)")
	return Result{Text: text, Values: map[string]float64{
		"statPct":    w.CycleAt.PctSyscall(sys.SysStat),
		"rwPct":      w.CycleAt.PctSyscall(sys.SysRead) + w.CycleAt.PctSyscall(sys.SysWrite) + w.CycleAt.PctSyscall(sys.SysWritev),
		"netResPct":  netPct,
		"fileResPct": filePct,
	}}
}

func tab5(ev *env, sc Scale, seed uint64) Result {
	sim := apacheSim(sc, seed, core.Options{})
	w := ev.window(sim, sc)
	t := report.NewTable("type", "user", "kernel", "overall")
	mixRows(t, "apache", w)
	text := t.String() + paperNote(
		"user: 21.8% loads, 10.1% stores, 16.7% branches, no FP",
		"kernel: ~54%/40% of loads/stores physically addressed",
		"overall ~42%/33% of loads/stores bypass the DTLB")
	return Result{Text: text, Values: map[string]float64{
		"kernelPhysLoadPct": w.Mix.PhysFrac(true, false),
		"userLoadPct":       w.Mix.Pct(false, isa.Load),
		"userFPPct":         w.Mix.Pct(false, isa.FPALU),
	}}
}

func tab6(ev *env, sc Scale, seed uint64) Result {
	ap := apacheSim(sc, seed, core.Options{})
	apW := ev.window(ap, sc)
	sp := specSim(sc, seed, core.Options{})
	_, spW := ev.phases(sp, sc)
	ss := apacheSim(sc, seed, core.Options{Processor: core.Superscalar})
	ssW := ev.window(ss, sc)

	t := report.NewTable("metric", "apache/smt", "spec/smt", "apache/ss")
	row := func(name string, f func(w report.Snapshot) float64, fmtF func(float64) string) {
		t.Row(name, fmtF(f(apW)), fmtF(f(spW)), fmtF(f(ssW)))
	}
	row("IPC", report.Snapshot.IPC, report.F2)
	row("squashed % of fetched", func(w report.Snapshot) float64 { return w.Metrics.SquashPct() }, report.F1)
	row("avg fetchable contexts", func(w report.Snapshot) float64 { return w.Metrics.AvgFetchable() }, report.F1)
	row("branch mispredict %", report.Snapshot.BpMispredictRate, report.F1)
	row("ITLB miss %", func(w report.Snapshot) float64 { return w.ITLB.MissRateOverall() }, report.F2)
	row("DTLB miss %", func(w report.Snapshot) float64 { return w.DTLB.MissRateOverall() }, report.F2)
	row("L1I miss %", func(w report.Snapshot) float64 { return w.L1I.MissRateOverall() }, report.F2)
	row("L1D miss %", func(w report.Snapshot) float64 { return w.L1D.MissRateOverall() }, report.F2)
	row("L2 miss %", func(w report.Snapshot) float64 { return w.L2.MissRateOverall() }, report.F2)
	row("0-fetch cycles %", func(w report.Snapshot) float64 { return w.Metrics.PctCycles(w.Metrics.ZeroFetch) }, report.F1)
	row("0-issue cycles %", func(w report.Snapshot) float64 { return w.Metrics.PctCycles(w.Metrics.ZeroIssue) }, report.F1)
	row("max(6)-issue cycles %", func(w report.Snapshot) float64 { return w.Metrics.PctCycles(w.Metrics.MaxIssue) }, report.F1)
	row("outstanding I$ misses", func(w report.Snapshot) float64 { return w.AvgOutstanding(0) }, report.F1)
	row("outstanding D$ misses", func(w report.Snapshot) float64 { return w.AvgOutstanding(1) }, report.F1)
	row("outstanding L2$ misses", func(w report.Snapshot) float64 { return w.AvgOutstanding(2) }, report.F1)

	ratio := 0.0
	if ssW.IPC() > 0 {
		ratio = apW.IPC() / ssW.IPC()
	}
	text := t.String() + fmt.Sprintf("\nApache SMT/superscalar throughput ratio: %.1fx\n", ratio) +
		paperNote(
			"Apache: 4.6 IPC on SMT vs 1.1 on the superscalar — a 4.2x gain, the largest of any SMT workload",
			"SPECInt steady state: 5.6 IPC on SMT",
			"the superscalar could not fetch or issue in over 60% of cycles on Apache")
	return Result{Text: text, Values: map[string]float64{
		"apacheSMTIPC":   apW.IPC(),
		"specSMTIPC":     spW.IPC(),
		"apacheSSIPC":    ssW.IPC(),
		"smtSSRatio":     ratio,
		"ssZeroFetchPct": ssW.Metrics.PctCycles(ssW.Metrics.ZeroFetch),
		"ssZeroIssuePct": ssW.Metrics.PctCycles(ssW.Metrics.ZeroIssue),
	}}
}

func tab7(ev *env, sc Scale, seed uint64) Result {
	sim := apacheSim(sc, seed, core.Options{})
	w := ev.window(sim, sc)
	var b strings.Builder
	structRows(&b, "BTB", w.BTB)
	structRows(&b, "L1I", w.L1I)
	structRows(&b, "L1D", w.L1D)
	structRows(&b, "L2", w.L2)
	structRows(&b, "DTLB", w.DTLB)
	structRows(&b, "ITLB", w.ITLB)

	kkShare := func(s report.StructStats) float64 {
		return s.Causes.Percent(true, 1) + s.Causes.Percent(true, 2) // kernel intra+inter
	}
	text := b.String() + paperNote(
		"kernel conflicts dominate Apache's cache misses: 65% of L1I, 65% of L1D, 41% of L2",
		"user-kernel conflicts are significant: 25% of L1I, 10% of L1D, 22% of L2",
		"user code causes the majority of TLB misses despite being only 22% of cycles")
	return Result{Text: text, Values: map[string]float64{
		"kernelShareL1I":  kkShare(w.L1I),
		"kernelShareL1D":  kkShare(w.L1D),
		"kernelShareL2":   kkShare(w.L2),
		"kernelAboveUser": kernelAboveUser(w.BTB, w.L1I, w.L1D, w.L2, w.DTLB, w.ITLB),
		"itlbCompulsoryPct": w.ITLB.Causes.Percent(false, conflict.Compulsory) +
			w.ITLB.Causes.Percent(true, conflict.Compulsory),
	}}
}

func tab8(ev *env, sc Scale, seed uint64) Result {
	smt := apacheSim(sc, seed, core.Options{})
	smtW := ev.window(smt, sc)
	ss := apacheSim(sc, seed, core.Options{Processor: core.Superscalar})
	ssW := ev.window(ss, sc)

	var b strings.Builder
	renderSharing := func(label string, w report.Snapshot) {
		t := report.NewTable("structure", "user<-user", "user<-kernel", "kernel<-user", "kernel<-kernel")
		each := func(name string, s report.StructStats) {
			t.Row(name,
				report.F1(s.AvoidedPct(false, false)), report.F1(s.AvoidedPct(false, true)),
				report.F1(s.AvoidedPct(true, false)), report.F1(s.AvoidedPct(true, true)))
		}
		each("L1I", w.L1I)
		each("L1D", w.L1D)
		each("L2", w.L2)
		each("DTLB", w.DTLB)
		fmt.Fprintf(&b, "%s (avoided misses as %% of total misses; row = mode that would have missed, col = mode that prefetched)\n%s\n",
			label, t.String())
	}
	renderSharing("Apache on SMT", smtW)
	renderSharing("Apache on superscalar", ssW)

	text := b.String() + paperNote(
		"on SMT, kernel-kernel I-cache prefetching avoided misses worth 66% of the observed misses (28% on the superscalar)",
		"kernel-kernel L2 sharing avoided an additional 71% of misses",
		"12% of kernel TLB misses were avoided by interthread prefetching")
	return Result{Text: text, Values: map[string]float64{
		"smtKernelKernelL1I":  smtW.L1I.AvoidedPct(true, true),
		"ssKernelKernelL1I":   ssW.L1I.AvoidedPct(true, true),
		"smtKernelKernelL2":   smtW.L2.AvoidedPct(true, true),
		"smtKernelKernelDTLB": smtW.DTLB.AvoidedPct(true, true),
	}}
}

func tab9(ev *env, sc Scale, seed uint64) Result {
	type cfgT struct {
		label string
		opt   core.Options
	}
	cfgs := []cfgT{
		{"smt-only", core.Options{OmitPrivileged: true}},
		{"smt+os", core.Options{}},
		{"ss-only", core.Options{Processor: core.Superscalar, OmitPrivileged: true}},
		{"ss+os", core.Options{Processor: core.Superscalar}},
	}
	ws := map[string]report.Snapshot{}
	for _, c := range cfgs {
		sim := apacheSim(sc, seed, c.opt)
		ws[c.label] = ev.window(sim, sc)
	}
	t := report.NewTable("metric", "smt-only", "smt+os", "chg", "ss-only", "ss+os", "chg")
	chg := func(a, b float64) string {
		if a == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", b/a)
	}
	row := func(name string, f func(w report.Snapshot) float64) {
		so, sw := f(ws["smt-only"]), f(ws["smt+os"])
		co, cw := f(ws["ss-only"]), f(ws["ss+os"])
		t.Row(name, report.F2(so), report.F2(sw), chg(so, sw), report.F2(co), report.F2(cw), chg(co, cw))
	}
	// "only" runs omit privileged references, so overall rates there are
	// user-reference rates, as in the paper's footnote.
	row("branch mispredict %", report.Snapshot.BpMispredictRate)
	row("BTB miss %", func(w report.Snapshot) float64 { return w.BTB.MissRateOverall() })
	row("L1I miss %", func(w report.Snapshot) float64 { return w.L1I.MissRateOverall() })
	row("L1D miss %", func(w report.Snapshot) float64 { return w.L1D.MissRateOverall() })
	row("L2 miss %", func(w report.Snapshot) float64 { return w.L2.MissRateOverall() })
	text := t.String() + paperNote(
		"the OS multiplies Apache's L1I miss rate ~5.5x (SMT) and L2 ~3.5x",
		"branch misprediction roughly doubles with the OS",
		"effects exceed those seen for SPECInt because OS activity dominates Apache")
	return Result{Text: text, Values: map[string]float64{
		"smtL1IOnly": ws["smt-only"].L1I.MissRateOverall(),
		"smtL1IFull": ws["smt+os"].L1I.MissRateOverall(),
		"smtL2Only":  ws["smt-only"].L2.MissRateOverall(),
		"smtL2Full":  ws["smt+os"].L2.MissRateOverall(),
		"smtL1DOnly": ws["smt-only"].L1D.MissRateOverall(),
		"smtL1DFull": ws["smt+os"].L1D.MissRateOverall(),
		"smtBpOnly":  ws["smt-only"].BpMispredictRate(),
		"smtBpFull":  ws["smt+os"].BpMispredictRate(),
	}}
}
