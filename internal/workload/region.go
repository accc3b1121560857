// Package workload provides the synthetic-code machinery that stands in for
// the binaries the paper executes (SPECInt95 applications, Apache, and
// Digital Unix kernel routines, none of which are redistributable or
// executable here).
//
// A Region is a static synthetic program: an array of instruction slots laid
// out at consecutive PCs, with per-site branch behavior (biases, loop trip
// counts, call/return structure, indirect-jump target sets) and per-site
// memory behavior (which data region, what pattern). A Walker executes a
// Region, producing the deterministic dynamic instruction stream that the
// pipeline fetches. Because branch behavior is attached to static sites,
// the branch predictor can learn it — mispredict rates then *emerge* from
// the site-bias distribution instead of being dialed in directly; likewise
// cache and TLB behavior emerge from code footprint and data working sets.
package workload

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/rng"
)

// Pattern describes how a memory slot generates addresses within its data
// region.
type Pattern uint8

const (
	// PatSeq strides sequentially through the region (array walks).
	PatSeq Pattern = iota
	// PatHot picks uniformly within the region's hot subset.
	PatHot
	// PatCold picks uniformly within the whole region.
	PatCold
)

// DataRegion is one data working-set component of a Region.
type DataRegion struct {
	// Base is the starting address (virtual, or physical if Physical).
	Base uint64
	// Size is the region size in bytes.
	Size uint64
	// Hot is the size of the frequently-touched subset (≤ Size).
	Hot uint64
	// Physical marks addresses as physical (kernel accesses that bypass
	// the DTLB, per Tables 2/5).
	Physical bool
	// Stream makes sequential accesses march through the whole region
	// (buffer-cache/socket copies touching fresh data) instead of looping
	// over the hot subset (array walks).
	Stream bool
}

// Slot is one static instruction. Its fields are ordered widest first, so
// the slot packs into 36 bytes: the walker reads one per instruction.
type Slot struct {
	// Target is the taken-target slot index for control transfers.
	Target int32
	// TakenBias is the probability a conditional branch is taken
	// (ignored when Trips > 0).
	TakenBias float32
	// Trips, when > 0, makes the conditional a loop-closing branch taken
	// Trips-1 consecutive times then falling through (deterministic, so
	// the local predictor can learn it).
	Trips int32
	// NumTargets > 1 gives an indirect jump a rotating set of targets
	// starting at Target (the paper's kernel indirect-jump pathology).
	NumTargets int32
	// Data is the data-region index for memory slots.
	Data int32
	// Stride is the sequential step in bytes for PatSeq.
	Stride int32
	// Ctr is the slot's counter ordinal within its region, or -1 for a
	// slot that holds no counter (see Region.NumberCounters). It is
	// derived from the other fields, never set by hand.
	Ctr int32
	// Dep1, Dep2 are register dependency distances.
	Dep1, Dep2 uint16
	// Kind is the instruction class.
	Kind isa.Class
	// IsCall marks an unconditional branch as a call (pushes the return
	// slot); IsRet marks an indirect jump as a return (pops it).
	IsCall, IsRet bool
	// Pattern is the address pattern for memory slots.
	Pattern Pattern
}

// holdsLoop reports whether a walker keeps a trip counter for the slot: a
// loop-closing conditional branch.
func (s *Slot) holdsLoop() bool { return s.Kind == isa.CondBranch && s.Trips > 0 }

// holdsVisits reports whether a walker keeps a visit counter for the slot:
// an indirect jump that rotates its targets, or a return that scatters
// when it finds the call stack empty.
func (s *Slot) holdsVisits() bool {
	return s.Kind == isa.IndirectJump && (s.IsRet || s.NumTargets > 1)
}

// Region is a static synthetic program or kernel routine.
type Region struct {
	// Name identifies the region in reports.
	Name string
	// Base is the virtual address of slot 0.
	Base uint64
	// Mode is the execution mode of the region's instructions.
	Mode isa.Mode
	// Slots is the static code.
	Slots []Slot
	// Data is the data regions referenced by memory slots.
	Data []DataRegion
	// Counters is the number of slots that hold a walker counter, so the
	// length of every walker's counter array (see NumberCounters).
	Counters int
	// loops is the number of loop-branch ordinals; they come first, then
	// the indirect-jump ones.
	loops int32
	// ctrSlot[c] is the slot index of counter ordinal c, ascending within
	// each kind.
	ctrSlot []int32
	// numbered records that NumberCounters has run.
	numbered bool
}

// NumberCounters gives every slot that can hold a walker counter its
// ordinal (Slot.Ctr): loop branches first, then indirect jumps, each kind
// in slot order; other slots get -1. A walker then keeps one counter per
// ordinal instead of two per slot: only a few percent of slots ever count.
// Build numbers the regions it makes and NewWalker numbers a hand-built
// region on first use; call it again after editing a region's slots.
func (r *Region) NumberCounters() {
	r.ctrSlot = nil
	for i := range r.Slots {
		r.Slots[i].Ctr = -1
		if r.Slots[i].holdsLoop() {
			r.Slots[i].Ctr = int32(len(r.ctrSlot))
			r.ctrSlot = append(r.ctrSlot, int32(i))
		}
	}
	r.loops = int32(len(r.ctrSlot))
	for i := range r.Slots {
		if r.Slots[i].holdsVisits() {
			r.Slots[i].Ctr = int32(len(r.ctrSlot))
			r.ctrSlot = append(r.ctrSlot, int32(i))
		}
	}
	r.Counters = len(r.ctrSlot)
	r.numbered = true
}

// Size returns the region's code size in bytes (4 bytes per instruction).
func (r *Region) Size() uint64 { return uint64(len(r.Slots)) * 4 }

// PCOf returns the PC of slot i.
func (r *Region) PCOf(i int) uint64 { return r.Base + uint64(i)*4 }

// Mix gives the fraction of instruction classes in a Profile. Fractions
// need not sum to 1; the remainder is integer ALU work.
type Mix struct {
	Load, Store, FP, Sync          float64
	CondBr, UncondBr, IndirectJump float64
}

// rest returns the IntALU fraction.
func (m Mix) rest() float64 {
	r := 1 - m.Load - m.Store - m.FP - m.Sync - m.CondBr - m.UncondBr - m.IndirectJump
	if r < 0 {
		return 0
	}
	return r
}

// DataSpec describes one data region of a Profile.
type DataSpec struct {
	// Size and Hot are the region and hot-subset sizes in bytes.
	Size, Hot uint64
	// Physical marks the region as physically addressed.
	Physical bool
	// Weight is the relative probability memory slots use this region.
	Weight float64
	// SeqFrac is the fraction of this region's slots that stride
	// sequentially; the rest split between hot and cold random.
	SeqFrac float64
	// ColdFrac is the fraction of random accesses that roam the whole
	// region rather than the hot subset.
	ColdFrac float64
	// Stream selects streaming (whole-region) sequential access.
	Stream bool
	// ShareKey, when non-empty, lets the layout function place several
	// profiles' regions at one shared address (the kernel's single buffer
	// cache, shared socket buffers).
	ShareKey string
}

// Profile parameterizes synthetic code generation. The per-workload values
// are calibrated against the paper's Tables 2 and 5 (instruction mix,
// physical-address fractions, conditional-taken rates) and its qualitative
// descriptions (kernel diamond-shaped branches, few loops; user loop nests).
type Profile struct {
	// Name names the generated region.
	Name string
	// Mode is the execution mode of the code.
	Mode isa.Mode
	// StaticInsts is the static code size in instructions (drives I-cache
	// and BTB footprint).
	StaticInsts int
	// Mix is the instruction-class mix.
	Mix Mix
	// CondTaken is the mean taken bias of non-loop conditional sites.
	CondTaken float64
	// LoopFrac is the fraction of conditional sites that are loop-closing.
	LoopFrac float64
	// MeanTrips is the mean loop trip count.
	MeanTrips float64
	// CallFrac is the fraction of unconditional branches that are calls
	// (matched by returns among the indirect jumps).
	CallFrac float64
	// SwitchTargets is the number of targets of non-return indirect jumps.
	SwitchTargets int
	// Data describes the data regions. At least one non-physical region
	// is required if Mix has memory classes with PhysFrac < 1.
	Data []DataSpec
	// PhysFrac is the fraction of memory slots assigned to physical
	// regions (kernel code only; requires a Physical region in Data).
	PhysFrac float64
	// MeanDep is the mean register-dependency distance (smaller = less
	// ILP; kernel code uses small values, tuned user loops larger).
	MeanDep float64
	// HardBranchFrac is the fraction of conditional sites with weak bias
	// (hard to predict). Zero selects the default of 0.12.
	HardBranchFrac float64
}

// Build generates the static Region for a profile. base is the code's
// starting address; data-region base addresses are produced by layout,
// which maps each DataSpec to an address range (so callers control address-
// space placement). r drives all sampling and must be dedicated to this
// build for determinism.
func Build(p Profile, base uint64, layout func(i int, spec DataSpec) uint64, r *rng.Rand) *Region {
	if p.StaticInsts <= 0 {
		panic(fmt.Sprintf("workload: profile %s has %d static instructions", p.Name, p.StaticInsts))
	}
	reg := &Region{Name: p.Name, Base: base, Mode: p.Mode}

	physRegions := []int{}
	virtRegions := []int{}
	weights := make([]float64, len(p.Data))
	for i, d := range p.Data {
		hot := d.Hot
		if hot == 0 || hot > d.Size {
			hot = d.Size
		}
		reg.Data = append(reg.Data, DataRegion{
			Base:     layout(i, d),
			Size:     d.Size,
			Hot:      hot,
			Physical: d.Physical,
			Stream:   d.Stream,
		})
		weights[i] = d.Weight
		if weights[i] <= 0 {
			weights[i] = 1
		}
		if d.Physical {
			physRegions = append(physRegions, i)
		} else {
			virtRegions = append(virtRegions, i)
		}
	}
	hasMem := p.Mix.Load+p.Mix.Store+p.Mix.Sync > 0
	if hasMem && len(reg.Data) == 0 {
		panic(fmt.Sprintf("workload: profile %s has memory ops but no data regions", p.Name))
	}

	n := p.StaticInsts
	reg.Slots = make([]Slot, n)

	// Pre-plan call targets: function entries scattered through the region,
	// with call sites Zipf-distributed over them — real programs spend most
	// of their time in a few hot routines, which is what lets the BTB and
	// I-cache capture a working set despite a large static footprint.
	nFuncs := n/64 + 1
	entries := make([]int32, nFuncs)
	for i := range entries {
		entries[i] = int32(r.Intn(n))
	}
	callZipf := rng.NewZipf(r, nFuncs, 1.2)

	classWeights := []float64{
		p.Mix.rest(), p.Mix.FP, p.Mix.Load, p.Mix.Store,
		p.Mix.CondBr, p.Mix.UncondBr, p.Mix.IndirectJump, p.Mix.Sync,
	}

	// Returns must balance calls or the walk degenerates: an excess of
	// returns drains the call stack and funnels control to one spot.
	retProb := 0.0
	if p.Mix.IndirectJump > 0 {
		retProb = p.Mix.UncondBr * p.CallFrac / p.Mix.IndirectJump
		if retProb > 0.85 {
			retProb = 0.85
		}
	}
	classes := []isa.Class{
		isa.IntALU, isa.FPALU, isa.Load, isa.Store,
		isa.CondBranch, isa.UncondBranch, isa.IndirectJump, isa.Sync,
	}

	pickData := func() (int32, bool) {
		if len(reg.Data) == 0 {
			return 0, false
		}
		usePhys := len(physRegions) > 0 && r.Bool(p.PhysFrac)
		if usePhys {
			return int32(physRegions[r.Intn(len(physRegions))]), true
		}
		if len(virtRegions) == 0 {
			return int32(physRegions[r.Intn(len(physRegions))]), true
		}
		// Weighted choice among virtual regions.
		w := make([]float64, len(virtRegions))
		for j, ri := range virtRegions {
			w[j] = weights[ri]
		}
		return int32(virtRegions[r.Choose(w)]), false
	}

	for i := 0; i < n; i++ {
		s := &reg.Slots[i]
		s.Kind = classes[r.Choose(classWeights)]
		s.Dep1 = depDist(r, p.MeanDep)
		s.Dep2 = 0
		if r.Bool(0.4) {
			s.Dep2 = depDist(r, p.MeanDep)
		}
		switch s.Kind {
		case isa.Load, isa.Store, isa.Sync:
			di, phys := pickData()
			s.Data = di
			d := reg.Data[di]
			switch {
			case r.Bool(specSeqFrac(p, int(di))):
				s.Pattern = PatSeq
				if reg.Data[di].Stream {
					s.Stride = 8 // copies touch every word
				} else {
					s.Stride = int32(8 << r.Intn(2)) // 8 or 16 byte strides
				}
			case r.Bool(specColdFrac(p, int(di))):
				s.Pattern = PatCold
			default:
				s.Pattern = PatHot
			}
			_ = phys
			_ = d
		case isa.CondBranch:
			if r.Bool(p.LoopFrac) {
				// Loop-closing backward branch. Bodies have a floor so hot
				// loops don't degenerate into branch-every-other-inst
				// cycles that would warp the dynamic instruction mix.
				body := 6 + r.Geometric(10)
				t := i - body
				if t < 0 {
					t = 0
				}
				s.Target = int32(t)
				s.Trips = int32(r.Geometric(p.MeanTrips))
				if s.Trips < 2 {
					s.Trips = 2
				}
			} else {
				// Forward diamond: skip a few instructions.
				skip := 1 + r.Geometric(6)
				t := i + 1 + skip
				if t >= n {
					t = 0
				}
				s.Target = int32(t)
				// Per-site bias: most sites strongly biased around the
				// profile mean, a few unpredictable.
				hard := p.HardBranchFrac
				if hard == 0 {
					hard = 0.12
				}
				if r.Bool(hard) {
					s.TakenBias = float32(0.3 + 0.4*r.Float64()) // hard sites
				} else if r.Bool(p.CondTaken) {
					// Strongly biased, like most real branches.
					s.TakenBias = float32(0.96 + 0.035*r.Float64())
				} else {
					s.TakenBias = float32(0.002 + 0.038*r.Float64())
				}
			}
		case isa.UncondBranch:
			if r.Bool(p.CallFrac) {
				s.IsCall = true
				s.Target = entries[callZipf.Next()]
			} else {
				t := i + 2 + r.Geometric(8)
				if t >= n {
					t = 0
				}
				s.Target = int32(t)
			}
		case isa.IndirectJump:
			// Returns match calls; the rest are switch-style jumps.
			if r.Bool(retProb) {
				s.IsRet = true
			} else {
				// At least two rotating targets: a fixed backward indirect
				// would trap the walk in a tight cycle forever.
				s.NumTargets = int32(2 + r.Intn(maxInt(1, p.SwitchTargets)))
				s.Target = entries[callZipf.Next()]
			}
		}
	}
	reg.NumberCounters()
	return reg
}

func specSeqFrac(p Profile, di int) float64 {
	if di < len(p.Data) {
		return p.Data[di].SeqFrac
	}
	return 0.3
}

func specColdFrac(p Profile, di int) float64 {
	if di < len(p.Data) {
		return p.Data[di].ColdFrac
	}
	return 0.1
}

func depDist(r *rng.Rand, mean float64) uint16 {
	if mean <= 0 {
		mean = 4
	}
	d := r.Geometric(mean)
	if d > 64 {
		d = 64
	}
	return uint16(d)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
