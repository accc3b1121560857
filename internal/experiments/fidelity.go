package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/report"
)

type values = map[string]float64

// fidelityRow is one claim of the paper checked against a measured result:
// the experiment whose Result.Values it reads, the headline metric, the
// paper's value, and check, which renders the measured value and evaluates
// the paper's predicate on it. A row with a divergence reason is an
// expected deviation: its predicate is expected to fail, so a change that
// makes the reproduction agree with the paper there has to flip the row on
// purpose.
type fidelityRow struct {
	id, metric, paper, divergence string
	check                         func(v values) (measured string, holds bool)
}

// near is the magnitude rule: x is within a factor of two of the paper's
// value.
func near(x, paper float64) bool { return x >= paper/2 && x <= 2*paper }

// fidelity is the paper-fidelity table: every headline claim, then the
// known divergences as expected deviations. Shape claims (who wins, which
// way the OS moves a metric) are checked as stated, magnitude claims with
// near. TestFidelity evaluates the table at Quick scale, and a full
// cmd/experiments run renders it after the experiment output.
var fidelity = []fidelityRow{
	{"tab6", "Apache IPC, SMT vs superscalar", "4.6 vs 1.1 = 4.2x", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.2f vs %.2f = %.1fx", v["apacheSMTIPC"], v["apacheSSIPC"], v["smtSSRatio"]), near(v["smtSSRatio"], 4.2)
	}},
	{"tab6", "SMT IPC, SPECInt vs Apache", "5.6 vs 4.6 (SPECInt higher)", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.2f vs %.2f", v["specSMTIPC"], v["apacheSMTIPC"]), v["specSMTIPC"] > v["apacheSMTIPC"]
	}},
	{"tab6", "Superscalar 0-fetch / 0-issue cycles, Apache", "> 60% / > 60%", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%% / %.1f%%", v["ssZeroFetchPct"], v["ssZeroIssuePct"]), v["ssZeroFetchPct"] > 60 && v["ssZeroIssuePct"] > 60
	}},
	{"fig5", "Apache time in the OS (kernel+PAL)", "> 75%", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%%", v["kernelPct"]), v["kernelPct"] > 75
	}},
	{"tab4", "SPECInt SMT IPC, app-only -> with OS", "5.9 -> 5.6 (OS costs IPC)", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.2f -> %.2f", v["ipcSMTApp"], v["ipcSMTFull"]), v["ipcSMTFull"] < v["ipcSMTApp"]
	}},
	{"tab4", "SPECInt superscalar IPC, app-only -> with OS", "3.0 -> 2.6 (OS costs IPC)", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.2f -> %.2f", v["ipcSSApp"], v["ipcSSFull"]), v["ipcSSFull"] < v["ipcSSApp"]
	}},
	{"tab4", "OS IPC cost, superscalar vs SMT (SPECInt)", "-15% vs -5% (superscalar worse)", "", func(v values) (string, bool) {
		ss, smt := 100*(v["ipcSSFull"]/v["ipcSSApp"]-1), 100*(v["ipcSMTFull"]/v["ipcSMTApp"]-1)
		return fmt.Sprintf("%+.0f%% vs %+.0f%%", ss, smt), ss < smt
	}},
	{"tab4", "SPECInt IPC with OS, SMT vs superscalar", "5.6 vs 2.6 (> 1.5x)", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.2f vs %.2f", v["ipcSMTFull"], v["ipcSSFull"]), v["ipcSMTFull"] > 1.5*v["ipcSSFull"]
	}},
	{"fig1", "SPECInt kernel time, start-up -> steady", "~18% -> ~5%", "", func(v values) (string, bool) {
		start, steady := v["startupKernelPct"], v["steadyKernelPct"]
		return fmt.Sprintf("%.1f%% -> %.1f%%", start, steady), start >= 2*steady && near(steady, 5)
	}},
	{"fig2", "SPECInt steady kernel time in TLB handling", "82% (TLB-dominated)", "", func(v values) (string, bool) {
		tlb := 100 * v["steadyTLBPct"] / v["steadyKernelPct"]
		return fmt.Sprintf("%.0f%%", tlb), near(tlb, 82)
	}},
	{"fig4", "SPECInt start-up file reads, % of cycles", "~3.5%", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%%", v["startupReadPct"]), near(v["startupReadPct"], 3.5)
	}},
	{"fig4", "SPECInt start-up fork+exec, of other syscalls", "most of the rest", "", func(v values) (string, bool) {
		rest := v["startupSyscallPct"] - v["startupReadPct"]
		return fmt.Sprintf("%.1f%% of %.1f%%", v["startupForkExecPct"], rest), v["startupForkExecPct"] > rest/2
	}},
	{"fig6", "Apache kernel time in syscalls", "57%", "", func(v values) (string, bool) {
		sc := 100 * v["apacheSyscallPct"] / v["apacheKernelPct"]
		return fmt.Sprintf("%.0f%%", sc), near(sc, 57)
	}},
	{"fig6", "Apache interrupts+netisr, % of all cycles", "26%", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%%", v["apacheNetPct"]), near(v["apacheNetPct"], 26)
	}},
	{"fig6", "Spin-lock cycles, SPECInt / Apache", "< 1.2% / < 4.5%", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%% / %.1f%%", v["specSpinPct"], v["apacheSpinPct"]), v["specSpinPct"] < 1.2 && v["apacheSpinPct"] < 4.5
	}},
	{"fig7", "Apache stat time, % of cycles", "~10%", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%%", v["statPct"]), near(v["statPct"], 10)
	}},
	{"fig7", "Apache read/write/writev time, % of cycles", "~19%", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%%", v["rwPct"]), near(v["rwPct"], 19)
	}},
	{"fig7", "Apache syscall work, file vs network", "18% vs 21% (balanced)", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%% vs %.1f%%", v["fileResPct"], v["netResPct"]), near(v["fileResPct"]/v["netResPct"], 18.0/21)
	}},
	{"tab8", "Kernel<-kernel L1I misses avoided, SMT (superscalar)", "66% (28%)", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%% (%.1f%%)", v["smtKernelKernelL1I"], v["ssKernelKernelL1I"]), near(v["smtKernelKernelL1I"], 66)
	}},
	{"tab8", "Kernel<-kernel DTLB misses avoided, SMT", "12%", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.1f%%", v["smtKernelKernelDTLB"]), near(v["smtKernelKernelDTLB"], 12)
	}},
	{"tab9", "OS impact on Apache branch misprediction", "~2.1x", "", func(v values) (string, bool) {
		r := v["smtBpFull"] / v["smtBpOnly"]
		return fmt.Sprintf("%.1fx", r), near(r, 2.1)
	}},
	{"tab9", "OS impact on Apache L1I / L1D miss rate", "5.5x / 1.35x (both rise)", "", func(v values) (string, bool) {
		i, d := v["smtL1IFull"]/v["smtL1IOnly"], v["smtL1DFull"]/v["smtL1DOnly"]
		return fmt.Sprintf("%.1fx / %.1fx", i, d), i > 1 && d > 1
	}},
	{"tab3", "SPECInt kernel vs user miss rates", "kernel > user in every structure", "", func(v values) (string, bool) {
		return fmt.Sprintf("kernel > user in %.0f of 5", v["kernelAboveUser"]), v["kernelAboveUser"] == 5
	}},
	{"ablation-contexts", "SMT throughput scaling 1 -> 8 contexts", "rises with contexts", "", func(v values) (string, bool) {
		return fmt.Sprintf("%.2f -> %.2f -> %.2f -> %.2f", v["ipc1"], v["ipc2"], v["ipc4"], v["ipc8"]),
			v["ipc1"] < v["ipc2"] && v["ipc2"] < v["ipc4"] && v["ipc4"] < v["ipc8"]
	}},

	// Known divergences.
	{"tab6", "Absolute Apache IPC on SMT", "4.6 (within 10%)",
		"synthetic memory streams have less spatial locality than compiled code, so loads wait longer",
		func(v values) (string, bool) {
			return fmt.Sprintf("%.2f", v["apacheSMTIPC"]), v["apacheSMTIPC"] >= 0.9*4.6 && v["apacheSMTIPC"] <= 1.1*4.6
		}},
	{"tab9", "OS impact on Apache L2 miss rate", "3.5x",
		"the user-only baseline's few L2 accesses are cold-tail streams: its miss rate is already high",
		func(v values) (string, bool) {
			r := v["smtL2Full"] / v["smtL2Only"]
			return fmt.Sprintf("%.1fx", r), near(r, 3.5)
		}},
	{"tab9", "OS impact on Apache L1I miss rate, magnitude", "5.5x",
		"without OS references Apache's text fits the 128 KB I-cache, so the baseline miss rate is ~0",
		func(v values) (string, bool) {
			r := v["smtL1IFull"] / v["smtL1IOnly"]
			return fmt.Sprintf("%.1fx", r), near(r, 5.5)
		}},
	{"fig6", "Apache DTLB handling, % of kernel time", "13% (within 25%)",
		"the synthetic kernel's working sets are more TLB-friendly than Digital Unix's",
		func(v values) (string, bool) {
			d := 100 * v["apacheDTLBPct"] / v["apacheKernelPct"]
			return fmt.Sprintf("%.1f%%", d), d >= 0.75*13 && d <= 1.25*13
		}},
	{"tab7", "Apache ITLB misses that are compulsory", "minuscule (< 10%)",
		"the synthetic code walk keeps touching new kernel text pages, which count as compulsory",
		func(v values) (string, bool) {
			return fmt.Sprintf("%.1f%%", v["itlbCompulsoryPct"]), v["itlbCompulsoryPct"] < 10
		}},
	{"tab4", "SPECInt SMT IPC cost of the OS", "-5% (within 3 points)",
		"the cost depends on how much start-up the window holds (a later window gives -5%)",
		func(v values) (string, bool) {
			c := 100 * (v["ipcSMTFull"]/v["ipcSMTApp"] - 1)
			return fmt.Sprintf("%+.0f%%", c), c >= -8 && c <= -2
		}},
	{"tab7", "Apache kernel vs user miss rates", "kernel > user in every structure",
		"Apache's synthetic user data and code walks miss more than the kernel in the L1D and ITLB",
		func(v values) (string, bool) {
			return fmt.Sprintf("kernel > user in %.0f of 6", v["kernelAboveUser"]), v["kernelAboveUser"] == 6
		}},
}

// verdict evaluates a row. ok reports whether it is the verdict the row
// expects: the predicate holds on a plain row and fails on a divergence.
func (r fidelityRow) verdict(v values) (text string, ok bool) {
	switch _, holds := r.check(v); {
	case r.divergence == "" && holds:
		return "holds", true
	case r.divergence == "":
		return "FAILS", false
	case holds:
		return "FLIPPED (now holds)", false
	}
	return "expected deviation", true
}

// RenderFidelity renders the fidelity table once per seed in out, in the
// "################ id — title" report form, leaving out rows whose
// experiment is not in out.
func RenderFidelity(out []Outcome) string {
	var seeds []uint64
	for _, o := range out {
		if !slices.Contains(seeds, o.Seed) {
			seeds = append(seeds, o.Seed)
		}
	}
	var b strings.Builder
	for _, seed := range seeds {
		byID := map[string]values{}
		for _, o := range out {
			if o.Seed == seed && o.Err == nil {
				byID[o.ID] = o.Res.Values
			}
		}
		t := report.NewTable("experiment", "metric", "paper", "measured", "verdict")
		var reasons strings.Builder
		d := 0 // divergences are numbered D1, D2, ... in table order
		for _, r := range fidelity {
			if r.divergence != "" {
				d++
			}
			v, ok := byID[r.id]
			if !ok {
				continue
			}
			measured, _ := r.check(v)
			verdict, _ := r.verdict(v)
			if r.divergence != "" {
				verdict = fmt.Sprintf("D%d %s", d, verdict)
				fmt.Fprintf(&reasons, "  D%d %s\n", d, r.divergence)
			}
			t.Row(r.id, r.metric, r.paper, measured, verdict)
		}
		fmt.Fprintf(&b, "################ fidelity — Paper fidelity: headline claims and known divergences (seed %d)\n\n%s", seed, t)
		if reasons.Len() > 0 {
			fmt.Fprintf(&b, "\nKnown divergences (expected to deviate from the paper):\n%s", reasons.String())
		}
		b.WriteString("\n")
	}
	return b.String()
}
