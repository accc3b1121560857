// Checkpoint serialization for the branch predictor.
package bpred

import "repro/internal/checkpoint"

// Sync syncs the BTB entry.
func (b *btbEntry) Sync(c *checkpoint.Codec) {
	c.Flags(&b.valid, &b.isRet, &b.filler.Priv)
	c.Uint(&b.tag)
	c.Uint(&b.target)
	c.Uint(&b.lastUse)
	checkpoint.U(c, &b.filler.TID)
}

// Sync syncs the predictor's complete mutable state, on a predictor with
// the same context count when reading.
func (p *Predictor) Sync(c *checkpoint.Codec) {
	checkpoint.Array(c, p.localPHT[:], "local PHT")
	checkpoint.Array(c, p.localHist[:], "local history")
	checkpoint.Array(c, p.global[:], "global PHT")
	checkpoint.Array(c, p.selector[:], "selector")
	checkpoint.Array(c, p.ghr, "global histories")
	if c.Expect(len(p.ras), "return stacks") {
		for i := range p.ras {
			checkpoint.Slice(c, &p.ras[i], rasDepth, "return stack")
		}
	}
	if c.Expect(len(p.btb), "BTB entries") {
		for i := range p.btb {
			p.btb[i].Sync(c)
		}
	}
	c.Uint(&p.tick)
	p.btbTracker.Sync(c)
	checkpoint.Array(c, p.Lookups[:], "lookups")
	checkpoint.Array(c, p.Mispredicts[:], "mispredicts")
	checkpoint.Array(c, p.BTBLookups[:], "BTB lookups")
	checkpoint.Array(c, p.BTBMisses[:], "BTB misses")
	p.BTBCauses.Sync(c)
}
