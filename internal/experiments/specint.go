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
	register("fig1", "Figure 1: cycle breakdown for SPECInt95 on SMT (start-up vs steady state)", fig1)
	register("fig2", "Figure 2: breakdown of kernel time for SPECInt95", fig2)
	register("fig3", "Figure 3: incursions into kernel memory management", fig3)
	register("fig4", "Figure 4: system calls as a percentage of execution cycles", fig4)
	register("tab2", "Table 2: SPECInt dynamic instruction mix by type", tab2)
	register("tab3", "Table 3: SPECInt miss rates and conflict classification", tab3)
	register("tab4", "Table 4: SPECInt with and without the OS, SMT vs superscalar", tab4)
}

// fig1 samples the user/kernel/idle cycle shares over time.
func fig1(ev *env, sc Scale, seed uint64) Result {
	sim := specSim(sc, seed, core.Options{})
	t := report.NewTable("cycles(k)", "user%", "kernel%", "pal%", "idle%")
	var lastKernel, startKernel float64
	for i, sw := range ev.steps(sim, sc, 16) {
		w := sw.w
		kp := w.CycleAt.PctMode(isa.Kernel) + w.CycleAt.PctMode(isa.PAL)
		if i == 0 {
			startKernel = kp
		}
		lastKernel = kp
		t.Row(report.I(sw.end/1000),
			report.F1(w.CycleAt.PctMode(isa.User)),
			report.F1(w.CycleAt.PctMode(isa.Kernel)),
			report.F1(w.CycleAt.PctMode(isa.PAL)),
			report.F1(w.CycleAt.PctCat(sys.CatIdle)))
	}
	text := t.String() + paperNote(
		"start-up: OS presence ~18% of execution cycles",
		"steady state: OS presence drops to a consistent ~5%",
		"idle cycles <= 0.7% of steady-state cycles")
	return Result{Text: text, Values: map[string]float64{
		"startupKernelPct": startKernel,
		"steadyKernelPct":  lastKernel,
	}}
}

// kernelBreakdownRows renders the per-category kernel-time split (as % of
// all cycles) used by Figures 2 and 6.
func kernelBreakdownRows(t *report.Table, label string, w report.Snapshot) {
	cats := []sys.Category{
		sys.CatSyscall, sys.CatDTLB, sys.CatITLB, sys.CatInterrupt,
		sys.CatNetisr, sys.CatSched, sys.CatSpin, sys.CatOtherKernel,
	}
	row := []string{label}
	for _, c := range cats {
		row = append(row, report.F1(w.CycleAt.PctCat(c)))
	}
	row = append(row, report.F1(w.CycleAt.PctMode(isa.PAL)))
	t.Row(row...)
}

func fig2(ev *env, sc Scale, seed uint64) Result {
	sim := specSim(sc, seed, core.Options{})
	startup, steady := ev.phases(sim, sc)
	ss := specSim(sc, seed, core.Options{Processor: core.Superscalar})
	ssStartup, ssSteady := ev.phases(ss, sc)

	t := report.NewTable("phase", "syscall%", "dtlb%", "itlb%", "intr%", "netisr%", "sched%", "spin%", "other%", "pal%")
	kernelBreakdownRows(t, "smt-startup", startup)
	kernelBreakdownRows(t, "smt-steady", steady)
	kernelBreakdownRows(t, "ss-startup", ssStartup)
	kernelBreakdownRows(t, "ss-steady", ssSteady)

	tlbStart := startup.CycleAt.PctCat(sys.CatDTLB) + startup.CycleAt.PctCat(sys.CatITLB)
	tlbSteady := steady.CycleAt.PctCat(sys.CatDTLB) + steady.CycleAt.PctCat(sys.CatITLB)
	text := t.String() + paperNote(
		"start-up: TLB miss handling ~12% of all cycles, system calls ~5%",
		"steady state: kernel ~5% of cycles, same proportions (TLB-dominated)",
		"the OS distribution is similar on the superscalar")
	return Result{Text: text, Values: map[string]float64{
		"startupTLBPct":     tlbStart,
		"steadyTLBPct":      tlbSteady,
		"startupSyscallPct": startup.CycleAt.PctCat(sys.CatSyscall),
		"steadyKernelPct":   steady.CycleAt.KernelPct(),
	}}
}

func fig3(ev *env, sc Scale, seed uint64) Result {
	sim := specSim(sc, seed, core.Options{})
	startup, steady := ev.phases(sim, sc)
	// The paper's Figure 3 counts incursions into *kernel memory
	// management* — TLB refills of already-mapped pages are handled
	// entirely in PAL and never reach the VM layer, so they are shown
	// separately, not as VM entries.
	t := report.NewTable("phase", "page-alloc", "page-reclaim", "unmap", "(pal-only refills)", "alloc% of VM entries")
	row := func(label string, w report.Snapshot) float64 {
		alloc := w.VMFaults[1]
		reclaim := w.VMFaults[2]
		vmEntries := alloc + reclaim + w.MemUnmaps
		pct := 0.0
		if vmEntries > 0 {
			pct = 100 * float64(alloc) / float64(vmEntries)
		}
		t.Row(label, report.I(alloc), report.I(reclaim), report.I(w.MemUnmaps), report.I(w.VMFaults[0]), report.F1(pct))
		return pct
	}
	sPct := row("startup", startup)
	row("steady", steady)
	text := t.String() + paperNote(
		"page allocation accounts for the majority of kernel memory-management entries",
		"most TLB activity is user-space data TLB misses (~95%)")
	return Result{Text: text, Values: map[string]float64{"startupAllocPct": sPct}}
}

func fig4(ev *env, sc Scale, seed uint64) Result {
	sim := specSim(sc, seed, core.Options{})
	startup, steady := ev.phases(sim, sc)
	t := report.NewTable("syscall", "startup % of cycles", "steady % of cycles")
	var readStart float64
	for n := uint16(1); n < sys.NumSyscalls; n++ {
		a := startup.CycleAt.PctSyscall(n)
		b := steady.CycleAt.PctSyscall(n)
		if a < 0.05 && b < 0.05 {
			continue
		}
		if n == sys.SysRead {
			readStart = a
		}
		t.Row(sys.Name(n), report.F1(a), report.F1(b))
	}
	text := t.String() + paperNote(
		"reading input files contributes ~3.5% of execution cycles during start-up",
		"file-read calls shrink once programs leave initialization")
	return Result{Text: text, Values: map[string]float64{
		"startupReadPct":     readStart,
		"startupForkExecPct": startup.CycleAt.PctSyscall(sys.SysFork) + startup.CycleAt.PctSyscall(sys.SysExec),
		"startupSyscallPct":  startup.CycleAt.PctCat(sys.CatSyscall),
	}}
}

// mixRows renders one Table 2/5-style column set.
func mixRows(t *report.Table, label string, m report.Snapshot) {
	mx := &m.Mix
	add := func(name string, user, kern, overall string) { t.Row(label+"/"+name, user, kern, overall) }
	overall := func(c isa.Class) float64 { return mx.PctOverall(c) }
	add("load",
		fmt.Sprintf("%.1f (%.0f%% phys)", mx.Pct(false, isa.Load), mx.PhysFrac(false, false)),
		fmt.Sprintf("%.1f (%.0f%% phys)", mx.Pct(true, isa.Load), mx.PhysFrac(true, false)),
		report.F1(overall(isa.Load)))
	add("store",
		fmt.Sprintf("%.1f (%.0f%% phys)", mx.Pct(false, isa.Store), mx.PhysFrac(false, true)),
		fmt.Sprintf("%.1f (%.0f%% phys)", mx.Pct(true, isa.Store), mx.PhysFrac(true, true)),
		report.F1(overall(isa.Store)))
	add("branch", report.F1(mx.BranchPct(false)), report.F1(mx.BranchPct(true)),
		report.F1((mx.BranchPct(false)+mx.BranchPct(true))/2))
	add("  cond",
		fmt.Sprintf("%.1f (%.0f%% taken)", mx.BranchSubPct(false, isa.CondBranch), mx.CondTakenPct(false)),
		fmt.Sprintf("%.1f (%.0f%% taken)", mx.BranchSubPct(true, isa.CondBranch), mx.CondTakenPct(true)),
		"")
	add("  uncond", report.F1(mx.BranchSubPct(false, isa.UncondBranch)), report.F1(mx.BranchSubPct(true, isa.UncondBranch)), "")
	add("  indirect", report.F1(mx.BranchSubPct(false, isa.IndirectJump)), report.F1(mx.BranchSubPct(true, isa.IndirectJump)), "")
	add("  pal", report.F1(mx.BranchSubPct(false, isa.PALCall)), report.F1(mx.BranchSubPct(true, isa.PALCall)), "")
	add("fp", report.F1(mx.Pct(false, isa.FPALU)), report.F1(mx.Pct(true, isa.FPALU)), report.F1(overall(isa.FPALU)))
	add("other-int", report.F1(mx.Pct(false, isa.IntALU)+mx.Pct(false, isa.Sync)),
		report.F1(mx.Pct(true, isa.IntALU)+mx.Pct(true, isa.Sync)), "")
}

func tab2(ev *env, sc Scale, seed uint64) Result {
	sim := specSim(sc, seed, core.Options{})
	startup, steady := ev.phases(sim, sc)
	t := report.NewTable("phase/type", "user", "kernel", "overall")
	mixRows(t, "startup", startup)
	mixRows(t, "steady", steady)
	text := t.String() + paperNote(
		"kernel memory ops often carry physical addresses (~51-57% start-up; 35%/68% steady loads/stores)",
		"kernel conditional branches taken less often than user's (26% vs 56% steady)",
		"user steady mix: ~20% loads, ~10% stores, ~15% branches, ~2% FP")
	return Result{Text: text, Values: map[string]float64{
		"steadyKernelPhysLoadPct": steady.Mix.PhysFrac(true, false),
		"steadyUserLoadPct":       steady.Mix.Pct(false, isa.Load),
	}}
}

// structRows renders a Table 3/7-style block for one hardware structure.
func structRows(b *strings.Builder, name string, s report.StructStats) {
	fmt.Fprintf(b, "%-5s total miss rate: user %.1f%%  kernel %.1f%%\n",
		name, s.MissRate(false), s.MissRate(true))
	t := report.NewTable("cause", "user%", "kernel%")
	for c := 0; c < conflict.NumCauses; c++ {
		t.Row(conflict.Cause(c).String(),
			report.F1(s.Causes.Percent(false, conflict.Cause(c))),
			report.F1(s.Causes.Percent(true, conflict.Cause(c))))
	}
	b.WriteString(t.String())
}

// kernelAboveUser counts the structures whose kernel miss rate exceeds the
// user miss rate.
func kernelAboveUser(structs ...report.StructStats) float64 {
	n := 0
	for _, s := range structs {
		if s.MissRate(true) > s.MissRate(false) {
			n++
		}
	}
	return float64(n)
}

func tab3(ev *env, sc Scale, seed uint64) Result {
	sim := specSim(sc, seed, core.Options{})
	w := ev.window(sim, sc)
	var b strings.Builder
	structRows(&b, "BTB", w.BTB)
	structRows(&b, "L1I", w.L1I)
	structRows(&b, "L1D", w.L1D)
	structRows(&b, "L2", w.L2)
	structRows(&b, "DTLB", w.DTLB)
	text := b.String() + paperNote(
		"kernel miss rates far exceed user miss rates (BTB 75 vs 31, L1I 8.4 vs 1.8, L1D 19 vs 3.2)",
		"application conflicts dominate misses except in the I-cache, where the kernel causes ~60%",
		"compulsory misses are minuscule except in the L2")
	return Result{Text: text, Values: map[string]float64{
		"kernelL1IMissRate": w.L1I.MissRate(true),
		"userL1DMissRate":   w.L1D.MissRate(false),
		"kernelBTBMissRate": w.BTB.MissRate(true),
		"kernelAboveUser":   kernelAboveUser(w.BTB, w.L1I, w.L1D, w.L2, w.DTLB),
	}}
}

func tab4(ev *env, sc Scale, seed uint64) Result {
	type cfg struct {
		label string
		opt   core.Options
	}
	cfgs := []cfg{
		{"smt+os", core.Options{}},
		{"smt-apponly", core.Options{AppOnly: true}},
		{"ss+os", core.Options{Processor: core.Superscalar}},
		{"ss-apponly", core.Options{Processor: core.Superscalar, AppOnly: true}},
	}
	t := report.NewTable("metric", "smt-only", "smt+os", "chg%", "ss-only", "ss+os", "chg%")
	ws := map[string]report.Snapshot{}
	for _, c := range cfgs {
		sim := specSim(sc, seed, c.opt)
		ws[c.label] = ev.window(sim, sc)
	}
	chg := func(only, with float64) string {
		if only == 0 {
			return "-"
		}
		return fmt.Sprintf("%+.0f%%", 100*(with-only)/only)
	}
	metric := func(name string, f func(w report.Snapshot) float64, f2 func(float64) string) {
		so, sw := f(ws["smt-apponly"]), f(ws["smt+os"])
		co, cw := f(ws["ss-apponly"]), f(ws["ss+os"])
		t.Row(name, f2(so), f2(sw), chg(so, sw), f2(co), f2(cw), chg(co, cw))
	}
	metric("IPC", func(w report.Snapshot) float64 { return w.IPC() }, report.F2)
	metric("avg fetchable contexts", func(w report.Snapshot) float64 { return w.Metrics.AvgFetchable() }, report.F1)
	metric("branch mispredict %", func(w report.Snapshot) float64 { return w.BpMispredictRate() }, report.F1)
	metric("squashed % of fetched", func(w report.Snapshot) float64 { return w.Metrics.SquashPct() }, report.F1)
	metric("L1I miss %", func(w report.Snapshot) float64 { return w.L1I.MissRateOverall() }, report.F2)
	metric("L1D miss %", func(w report.Snapshot) float64 { return w.L1D.MissRateOverall() }, report.F2)
	metric("L2 miss %", func(w report.Snapshot) float64 { return w.L2.MissRateOverall() }, report.F2)
	metric("ITLB miss %", func(w report.Snapshot) float64 { return w.ITLB.MissRateOverall() }, report.F2)
	metric("DTLB miss %", func(w report.Snapshot) float64 { return w.DTLB.MissRateOverall() }, report.F2)
	text := t.String() + paperNote(
		"SMT: 5.9 IPC app-only vs 5.6 with OS (-5%); superscalar: 3.0 vs 2.6 (-15%)",
		"the OS perturbs the superscalar more than the SMT",
		"L1I miss rate rises sharply when the OS is included (flush-induced)")
	return Result{Text: text, Values: map[string]float64{
		"ipcSMTApp":  ws["smt-apponly"].IPC(),
		"ipcSMTFull": ws["smt+os"].IPC(),
		"ipcSSApp":   ws["ss-apponly"].IPC(),
		"ipcSSFull":  ws["ss+os"].IPC(),
	}}
}
