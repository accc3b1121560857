package stats

import "repro/internal/checkpoint"

// Sync syncs the mix counters.
func (m *Mix) Sync(c *checkpoint.Codec) {
	for p := range m.Count {
		checkpoint.Array(c, m.Count[p][:], "mix classes")
	}
	checkpoint.Array(c, m.PhysLoad[:], "mix physical loads")
	checkpoint.Array(c, m.PhysStore[:], "mix physical stores")
	checkpoint.Array(c, m.CondTaken[:], "mix taken branches")
}

// Sync syncs the cycle attribution.
func (cy *Cycles) Sync(c *checkpoint.Codec) {
	checkpoint.Array(c, cy.ByCat[:], "cycles by category")
	checkpoint.Array(c, cy.BySyscall[:], "cycles by syscall")
	checkpoint.Array(c, cy.ByMode[:], "cycles by mode")
	c.Uint(&cy.Total)
}

// Sync syncs the series moments.
func (s *Series) Sync(c *checkpoint.Codec) {
	c.Uint(&s.N)
	c.Float(&s.Sum)
	c.Float(&s.SumSq)
}

// Sync syncs the histogram. Buckets are a column: a latency histogram is
// mostly empty.
func (h *Hist) Sync(c *checkpoint.Codec) {
	c.Uint(&h.Count)
	c.Uint(&h.Sum)
	c.Uint(&h.Over)
	checkpoint.Zero(c, h.Buckets[:])
	checkpoint.Column(c, h.Buckets[:], func(b *uint64) *uint64 { return b })
}
