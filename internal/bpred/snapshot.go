// Checkpoint serialization for the branch predictor.
package bpred

import "repro/internal/checkpoint"

// Per-entry flag bits in the BTB rows of the predictor section.
const (
	btbValid = 1 << iota
	btbIsRet
	btbFillerPrv
)

// Save writes the predictor's complete mutable state.
func (p *Predictor) Save(e *checkpoint.Enc) {
	checkpoint.PutUints(e, p.localPHT[:])
	checkpoint.PutUints(e, p.localHist[:])
	checkpoint.PutUints(e, p.global[:])
	checkpoint.PutUints(e, p.selector[:])
	checkpoint.PutUints(e, p.ghr)
	e.Uint(uint64(len(p.ras)))
	for _, r := range p.ras {
		checkpoint.PutUints(e, r)
	}
	e.Uint(uint64(len(p.btb)))
	for i := range p.btb {
		b := &p.btb[i]
		e.Uint(checkpoint.Flags(b.valid, b.isRet, b.filler.Priv))
		e.Uint(b.tag)
		e.Uint(b.target)
		e.Uint(b.lastUse)
		e.Uint(uint64(b.filler.TID))
	}
	e.Uint(p.tick)
	p.btbTracker.Save(e)
	checkpoint.PutUints(e, p.Lookups[:])
	checkpoint.PutUints(e, p.Mispredicts[:])
	checkpoint.PutUints(e, p.BTBLookups[:])
	checkpoint.PutUints(e, p.BTBMisses[:])
	p.BTBCauses.Save(e)
}

// Load overwrites the predictor's state from a section written by Save on
// a predictor with the same context count.
func (p *Predictor) Load(d *checkpoint.Dec) {
	checkpoint.LoadUints(d, p.localPHT[:], "local PHT")
	checkpoint.LoadUints(d, p.localHist[:], "local history")
	checkpoint.LoadUints(d, p.global[:], "global PHT")
	checkpoint.LoadUints(d, p.selector[:], "selector")
	checkpoint.LoadUints(d, p.ghr, "global histories")
	if d.Expect(len(p.ras), "return stacks") {
		for i := range p.ras {
			p.ras[i] = checkpoint.GetUints(d, p.ras[i])
			if len(p.ras[i]) > rasDepth {
				d.Fail("return stack %d holds %d entries, depth %d", i, len(p.ras[i]), rasDepth)
				p.ras[i] = p.ras[i][:0]
			}
		}
	}
	if d.Expect(len(p.btb), "BTB entries") {
		for i := range p.btb {
			b := &p.btb[i]
			flags := d.Uint()
			b.valid = flags&btbValid != 0
			b.isRet = flags&btbIsRet != 0
			b.filler.Priv = flags&btbFillerPrv != 0
			b.tag = d.Uint()
			b.target = d.Uint()
			b.lastUse = d.Uint()
			b.filler.TID = uint32(d.Uint())
		}
	}
	p.tick = d.Uint()
	p.btbTracker.Load(d)
	checkpoint.LoadUints(d, p.Lookups[:], "lookups")
	checkpoint.LoadUints(d, p.Mispredicts[:], "mispredicts")
	checkpoint.LoadUints(d, p.BTBLookups[:], "BTB lookups")
	checkpoint.LoadUints(d, p.BTBMisses[:], "BTB misses")
	p.BTBCauses.Load(d)
}
