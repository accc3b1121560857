// Package stats holds the measurement machinery of the reproduction: the
// instruction-mix accounting behind Tables 2 and 5, and the cycle
// attribution behind Figures 1–7.
//
// Cycle attribution follows the SimOS convention: every simulated cycle,
// each hardware context attributes one context-cycle to the activity of its
// oldest in-flight instruction (or to its most recent activity while the
// context is drained). Percentages are then shares of total context-cycles,
// which is the paper's "% of execution cycles".
package stats

import (
	"math"

	"repro/internal/isa"
	"repro/internal/sys"
)

// Mix accumulates the dynamic instruction mix split by privilege class,
// reproducing the layout of the paper's Tables 2 and 5.
type Mix struct {
	// Count[priv][class] (priv 0 = user, 1 = kernel incl. PAL).
	Count [2][isa.NumClasses]uint64
	// PhysLoad/PhysStore count memory ops with physical (TLB-bypassing)
	// addresses.
	PhysLoad, PhysStore [2]uint64
	// CondTaken counts taken conditional branches.
	CondTaken [2]uint64
}

// Add records one committed instruction.
func (m *Mix) Add(in *isa.Inst) {
	p := privIndex(in.Mode.Privileged())
	m.Count[p][in.Class]++
	switch in.Class {
	case isa.Load:
		if in.Physical {
			m.PhysLoad[p]++
		}
	case isa.Store:
		if in.Physical {
			m.PhysStore[p]++
		}
	case isa.CondBranch:
		if in.Taken {
			m.CondTaken[p]++
		}
	}
}

// Total returns the committed instructions for one privilege class.
func (m *Mix) Total(priv bool) uint64 {
	var t uint64
	for _, c := range m.Count[privIndex(priv)] {
		t += c
	}
	return t
}

// TotalAll returns all committed instructions.
func (m *Mix) TotalAll() uint64 { return m.Total(false) + m.Total(true) }

// Pct returns class share (percent) within one privilege class.
func (m *Mix) Pct(priv bool, c isa.Class) float64 {
	t := m.Total(priv)
	if t == 0 {
		return 0
	}
	return 100 * float64(m.Count[privIndex(priv)][c]) / float64(t)
}

// PctOverall returns class share across all instructions.
func (m *Mix) PctOverall(c isa.Class) float64 {
	t := m.TotalAll()
	if t == 0 {
		return 0
	}
	return 100 * float64(m.Count[0][c]+m.Count[1][c]) / float64(t)
}

// PhysFrac returns the fraction (percent) of loads or stores that carry
// physical addresses, for one privilege class.
func (m *Mix) PhysFrac(priv bool, store bool) float64 {
	p := privIndex(priv)
	var n, d uint64
	if store {
		n, d = m.PhysStore[p], m.Count[p][isa.Store]
	} else {
		n, d = m.PhysLoad[p], m.Count[p][isa.Load]
	}
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// CondTakenPct returns the percentage of conditional branches taken.
func (m *Mix) CondTakenPct(priv bool) float64 {
	p := privIndex(priv)
	if m.Count[p][isa.CondBranch] == 0 {
		return 0
	}
	return 100 * float64(m.CondTaken[p]) / float64(m.Count[p][isa.CondBranch])
}

// BranchPct returns the share (percent) of branch-class instructions within
// one privilege class (the tables' "Branch" row).
func (m *Mix) BranchPct(priv bool) float64 {
	p := privIndex(priv)
	t := m.Total(priv)
	if t == 0 {
		return 0
	}
	var br uint64
	for c := 0; c < isa.NumClasses; c++ {
		if isa.Class(c).IsBranch() {
			br += m.Count[p][c]
		}
	}
	return 100 * float64(br) / float64(t)
}

// BranchSubPct returns class share among branch instructions (the tables'
// indented conditional/unconditional/indirect/PAL rows).
func (m *Mix) BranchSubPct(priv bool, c isa.Class) float64 {
	p := privIndex(priv)
	var br uint64
	for k := 0; k < isa.NumClasses; k++ {
		if isa.Class(k).IsBranch() {
			br += m.Count[p][k]
		}
	}
	if br == 0 {
		return 0
	}
	n := m.Count[p][c]
	if c == isa.PALCall {
		n += m.Count[p][isa.PALReturn]
	}
	return 100 * float64(n) / float64(br)
}

// Cycles is the cycle-attribution accumulator behind Figures 1, 2, 5, 6
// and 7.
type Cycles struct {
	// ByCat[cat] is context-cycles attributed to each kernel-time category.
	ByCat [sys.NumCategories]uint64
	// BySyscall[n] refines CatSyscall by syscall number (Figure 7).
	BySyscall [sys.NumSyscalls]uint64
	// ByMode[m] is context-cycles per execution mode.
	ByMode [isa.NumModes]uint64
	// Total is all context-cycles.
	Total uint64
}

// Add attributes one context-cycle.
func (c *Cycles) Add(cat sys.Category, syscall uint16, mode isa.Mode) {
	c.ByCat[cat]++
	if cat == sys.CatSyscall && int(syscall) < len(c.BySyscall) {
		c.BySyscall[syscall]++
	}
	c.ByMode[mode]++
	c.Total++
}

// PctCat returns a category's share of all context-cycles in percent.
func (c *Cycles) PctCat(cat sys.Category) float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.ByCat[cat]) / float64(c.Total)
}

// PctSyscall returns one syscall's share of all context-cycles in percent.
func (c *Cycles) PctSyscall(n uint16) float64 {
	if c.Total == 0 || int(n) >= len(c.BySyscall) {
		return 0
	}
	return 100 * float64(c.BySyscall[n]) / float64(c.Total)
}

// PctMode returns a mode's share of all context-cycles in percent.
func (c *Cycles) PctMode(m isa.Mode) float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.ByMode[m]) / float64(c.Total)
}

// KernelPct returns the share of context-cycles spent privileged (kernel +
// PAL), the paper's headline "time in the OS".
func (c *Cycles) KernelPct() float64 {
	if c.Total == 0 {
		return 0
	}
	return 100 * float64(c.ByMode[isa.Kernel]+c.ByMode[isa.PAL]) / float64(c.Total)
}

// Sub returns the difference c - prev: the sampler's attribution of one
// detail window, computed inside the engine's allocation-free step
// (report.Delta windows Cycles through its reflective field walk instead).
func (c *Cycles) Sub(prev *Cycles) Cycles {
	var d Cycles
	for i := range c.ByCat {
		d.ByCat[i] = c.ByCat[i] - prev.ByCat[i]
	}
	for i := range c.BySyscall {
		d.BySyscall[i] = c.BySyscall[i] - prev.BySyscall[i]
	}
	for i := range c.ByMode {
		d.ByMode[i] = c.ByMode[i] - prev.ByMode[i]
	}
	d.Total = c.Total - prev.Total
	return d
}

// Series accumulates scalar observations as moment sums (count, sum, sum of
// squares) so sampled runs can report a mean with a standard-error estimate.
// Moment sums — unlike Welford state — subtract cleanly, which lets
// report.Delta compute the series for a measurement window as end − start.
type Series struct {
	// N is the number of observations.
	N uint64
	// Sum and SumSq are the running first and second moments.
	Sum, SumSq float64
}

// Add records one observation.
func (s *Series) Add(v float64) {
	s.N++
	s.Sum += v
	s.SumSq += v * v
}

// Mean returns the sample mean (0 with no observations).
func (s *Series) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.Sum / float64(s.N)
}

// Var returns the unbiased sample variance (0 with fewer than two
// observations). The naive moment formula can go slightly negative from
// rounding, so the result is clamped at zero.
func (s *Series) Var() float64 {
	if s.N < 2 {
		return 0
	}
	n := float64(s.N)
	v := (s.SumSq - s.Sum*s.Sum/n) / (n - 1)
	if v < 0 {
		return 0
	}
	return v
}

// StdErr returns the standard error of the mean, sqrt(Var/N) — the ± the
// sampled-run report attaches to each estimate (0 with fewer than two
// observations).
func (s *Series) StdErr() float64 {
	if s.N < 2 {
		return 0
	}
	return math.Sqrt(s.Var() / float64(s.N))
}

func privIndex(priv bool) int {
	if priv {
		return 1
	}
	return 0
}
