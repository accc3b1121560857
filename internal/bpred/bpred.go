// Package bpred models the fetch engine's branch hardware from the paper's
// Table 1: a McFarling-style hybrid predictor (a 4K-entry local prediction
// table indexed through a 2K-entry history table, an 8K-entry global
// predictor, and an 8K-entry selector), a 1K-entry 4-way set-associative
// branch target buffer, and per-context return-address stacks.
//
// Direction prediction comes from the hybrid tables; targets of *direct*
// branches are computed at decode (PC-relative), so a BTB miss on a direct
// branch costs only a front-end bubble, not a misprediction. Indirect jumps
// and returns take their targets from the BTB and the per-context return
// stacks — a BTB miss or a changed target there is a full misprediction,
// which is the paper's kernel indirect-jump pathology (§3.1.2). The kernel's
// diamond-shaped, rarely-taken branches predict well despite a 75% BTB miss
// rate because fall-through is the common outcome.
//
// The direction tables and the BTB are shared by all hardware contexts (the
// SMT's fine-grained sharing is the point of the study); the global-history
// registers and return stacks are per-context, as per-context fetch state.
package bpred

import (
	"repro/internal/conflict"
	"repro/internal/isa"
)

const (
	localPHTSize   = 4096
	localHistSize  = 2048
	localHistBits  = 12
	globalSize     = 8192
	globalHistBits = 13
	btbEntries     = 1024
	btbWays        = 4
	btbSets        = btbEntries / btbWays
	rasDepth       = 16
)

// btbEntry is one target-buffer entry.
type btbEntry struct {
	valid   bool
	tag     uint64
	target  uint64
	lastUse uint64
	filler  conflict.Agent
	isRet   bool
}

// Prediction is the fetch-time prediction for one control-transfer
// instruction.
type Prediction struct {
	// Taken is the predicted direction.
	Taken bool
	// Target is the predicted target (meaningful when Taken).
	Target uint64
	// BTBHit reports whether the BTB recognized the branch.
	BTBHit bool
	// usedGlobal records which component predicted, for selector update.
	usedGlobal bool
	// localIdx and globalIdx snapshot the table indices used.
	localIdx, globalIdx int
}

// Predictor is the complete branch hardware.
type Predictor struct {
	localPHT  [localPHTSize]uint8
	localHist [localHistSize]uint16
	global    [globalSize]uint8
	selector  [globalSize]uint8
	ghr       []uint32 // per-context global history
	ras       [][]uint64
	btb       [btbEntries]btbEntry
	tick      uint64

	btbTracker *conflict.Tracker

	// Lookups and Mispredicts are indexed by privilege (0 user, 1 kernel) —
	// conditional-branch direction (+ indirect target) mispredictions.
	Lookups     [2]uint64
	Mispredicts [2]uint64
	// BTBLookups and BTBMisses count target-buffer behavior per privilege.
	BTBLookups [2]uint64
	BTBMisses  [2]uint64
	// BTBCauses classifies BTB misses (Tables 3 and 7).
	BTBCauses conflict.Matrix

	// OmitPrivileged makes privileged lookups perfect and stateless,
	// implementing Table 9's user-only measurement.
	OmitPrivileged bool //detlint:ignore snapshotcomplete configuration set at assembly, not mutable simulation state
}

// New returns a predictor for nContexts hardware contexts. Counters start
// weakly not-taken; histories empty.
func New(nContexts int) *Predictor {
	p := &Predictor{
		ghr:        make([]uint32, nContexts),
		ras:        make([][]uint64, nContexts),
		btbTracker: conflict.NewTracker(),
	}
	for i := range p.localPHT {
		p.localPHT[i] = 1
	}
	for i := range p.global {
		p.global[i] = 1
	}
	for i := range p.selector {
		p.selector[i] = 2 // slight initial preference for the global predictor
	}
	return p
}

func (p *Predictor) btbSet(pc uint64) []btbEntry {
	s := int((pc >> 2) % btbSets)
	return p.btb[s*btbWays : (s+1)*btbWays]
}

func btbTag(pc uint64) uint64 { return pc >> 2 }

// btbLookup probes the BTB without stats.
func (p *Predictor) btbLookup(pc uint64) *btbEntry {
	set := p.btbSet(pc)
	for i := range set {
		if set[i].valid && set[i].tag == btbTag(pc) {
			return &set[i]
		}
	}
	return nil
}

func (p *Predictor) localIndex(pc uint64) int {
	h := p.localHist[(pc>>2)%localHistSize]
	return int(h) & (localPHTSize - 1)
}

func (p *Predictor) globalIndex(ctx int, pc uint64) int {
	return int((uint64(p.ghr[ctx]) ^ (pc >> 2)) & (globalSize - 1))
}

// Predict produces the fetch-time prediction for instruction in running on
// hardware context ctx by agent ag.
//
//detlint:hot per-branch prediction probe inside Engine.fetchCtx
func (p *Predictor) Predict(ctx int, in *isa.Inst, ag conflict.Agent) Prediction {
	if p.OmitPrivileged && ag.Priv {
		return Prediction{Taken: in.Taken || in.Class != isa.CondBranch, Target: in.Target, BTBHit: true}
	}
	p.tick++
	pi := privIndex(ag.Priv)
	p.BTBLookups[pi]++
	e := p.btbLookup(in.PC)
	pred := Prediction{BTBHit: e != nil}
	if e == nil {
		p.BTBMisses[pi]++
		p.BTBCauses.Add(ag, p.btbTracker.Classify(btbTag(in.PC), ag))
	}
	switch in.Class {
	case isa.CondBranch:
		pred.localIdx = p.localIndex(in.PC)
		pred.globalIdx = p.globalIndex(ctx, in.PC)
		sel := p.selector[pred.globalIdx]
		pred.usedGlobal = sel >= 2
		var counter uint8
		if pred.usedGlobal {
			counter = p.global[pred.globalIdx]
		} else {
			counter = p.localPHT[pred.localIdx]
		}
		pred.Taken = counter >= 2
		// Direct target, available at decode.
		pred.Target = in.Target
	case isa.IndirectJump:
		pred.Taken = true
		if top, ok := p.rasTop(ctx); ok && (e == nil || e.isRet) {
			// Returns predict through the return-address stack.
			pred.Target = top
		} else if e != nil {
			pred.Target = e.target
		} // else: no target available — misprediction.
	default: // UncondBranch, PALCall, PALReturn: direct targets.
		pred.Taken = true
		pred.Target = in.Target
	}
	return pred
}

// Resolve updates all predictor state with the actual outcome and returns
// whether the prediction was wrong (direction or target). fallthrough
// semantics: a taken control transfer with a wrong or unknown target is a
// misprediction.
//
//detlint:hot per-branch resolution inside Engine.fetchCtx
func (p *Predictor) Resolve(ctx int, in *isa.Inst, pred Prediction, ag conflict.Agent) bool {
	if p.OmitPrivileged && ag.Priv {
		return false
	}
	pi := privIndex(ag.Priv)
	p.Lookups[pi]++

	actualTaken := in.Taken || in.Class != isa.CondBranch
	var misp bool
	switch in.Class {
	case isa.CondBranch:
		misp = pred.Taken != actualTaken
	case isa.IndirectJump:
		misp = pred.Target != in.Target
	default:
		// Direct transfers resolve at decode.
		misp = false
	}
	if misp {
		p.Mispredicts[pi]++
	}

	// Direction-table update (conditionals only).
	if in.Class == isa.CondBranch {
		li, gi := pred.localIdx, pred.globalIdx
		p.localPHT[li] = bump(p.localPHT[li], in.Taken)
		p.global[gi] = bump(p.global[gi], in.Taken)
		localRight := (p.localPHT[li] >= 2) == in.Taken // post-update approximation
		globalRight := (p.global[gi] >= 2) == in.Taken
		if globalRight && !localRight {
			p.selector[gi] = bump(p.selector[gi], true)
		} else if localRight && !globalRight {
			p.selector[gi] = bump(p.selector[gi], false)
		}
		h := &p.localHist[(in.PC>>2)%localHistSize]
		*h = (*h<<1 | bit(in.Taken)) & ((1 << localHistBits) - 1)
		p.ghr[ctx] = (p.ghr[ctx]<<1 | uint32(bit(in.Taken))) & ((1 << globalHistBits) - 1)
	}

	// Return-address stack: calls push, returns pop.
	switch in.Class {
	case isa.UncondBranch, isa.PALCall:
		p.rasPush(ctx, in.PC+4)
	case isa.IndirectJump, isa.PALReturn:
		p.rasPop(ctx)
	}

	// BTB allocation/update on actually-taken transfers.
	if actualTaken {
		p.btbInsert(in, ag)
	}
	return misp
}

func (p *Predictor) btbInsert(in *isa.Inst, ag conflict.Agent) {
	p.tick++
	set := p.btbSet(in.PC)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range set {
		e := &set[i]
		if e.valid && e.tag == btbTag(in.PC) {
			e.target = in.Target
			e.lastUse = p.tick
			e.isRet = in.Class == isa.IndirectJump || in.Class == isa.PALReturn
			return
		}
		if !e.valid {
			victim = i
			oldest = 0
		} else if e.lastUse < oldest {
			victim = i
			oldest = e.lastUse
		}
	}
	v := &set[victim]
	if v.valid {
		p.btbTracker.Evicted(v.tag, ag)
	}
	p.btbTracker.FirstSeen(btbTag(in.PC), ag)
	*v = btbEntry{
		valid:   true,
		tag:     btbTag(in.PC),
		target:  in.Target,
		lastUse: p.tick,
		filler:  ag,
		isRet:   in.Class == isa.IndirectJump || in.Class == isa.PALReturn,
	}
}

func (p *Predictor) rasPush(ctx int, addr uint64) {
	s := p.ras[ctx]
	if len(s) >= rasDepth {
		copy(s, s[1:])
		s = s[:rasDepth-1]
	}
	p.ras[ctx] = append(s, addr)
}

func (p *Predictor) rasPop(ctx int) {
	if n := len(p.ras[ctx]); n > 0 {
		p.ras[ctx] = p.ras[ctx][:n-1]
	}
}

func (p *Predictor) rasTop(ctx int) (uint64, bool) {
	if n := len(p.ras[ctx]); n > 0 {
		return p.ras[ctx][n-1], true
	}
	return 0, false
}

// FlushContext clears per-context fetch state (on context switch the return
// stack no longer matches the new thread).
func (p *Predictor) FlushContext(ctx int) {
	p.ras[ctx] = p.ras[ctx][:0]
	p.ghr[ctx] = 0
}

// MispredictRate returns the misprediction percentage for one privilege
// class.
func (p *Predictor) MispredictRate(priv bool) float64 {
	pi := privIndex(priv)
	if p.Lookups[pi] == 0 {
		return 0
	}
	return 100 * float64(p.Mispredicts[pi]) / float64(p.Lookups[pi])
}

// MispredictRateOverall returns the total misprediction percentage.
func (p *Predictor) MispredictRateOverall() float64 {
	l := p.Lookups[0] + p.Lookups[1]
	if l == 0 {
		return 0
	}
	return 100 * float64(p.Mispredicts[0]+p.Mispredicts[1]) / float64(l)
}

// BTBMissRate returns the BTB miss percentage for one privilege class.
func (p *Predictor) BTBMissRate(priv bool) float64 {
	pi := privIndex(priv)
	if p.BTBLookups[pi] == 0 {
		return 0
	}
	return 100 * float64(p.BTBMisses[pi]) / float64(p.BTBLookups[pi])
}

// BTBMissRateOverall returns the total BTB miss percentage.
func (p *Predictor) BTBMissRateOverall() float64 {
	l := p.BTBLookups[0] + p.BTBLookups[1]
	if l == 0 {
		return 0
	}
	return 100 * float64(p.BTBMisses[0]+p.BTBMisses[1]) / float64(l)
}

func bump(c uint8, up bool) uint8 {
	if up {
		if c < 3 {
			return c + 1
		}
		return 3
	}
	if c > 0 {
		return c - 1
	}
	return 0
}

func bit(b bool) uint16 {
	if b {
		return 1
	}
	return 0
}

func privIndex(priv bool) int {
	if priv {
		return 1
	}
	return 0
}
