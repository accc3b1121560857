package stats

import "repro/internal/checkpoint"

// Save writes the mix counters to a checkpoint section.
func (m *Mix) Save(e *checkpoint.Enc) {
	for p := range m.Count {
		checkpoint.PutUints(e, m.Count[p][:])
	}
	checkpoint.PutUints(e, m.PhysLoad[:])
	checkpoint.PutUints(e, m.PhysStore[:])
	checkpoint.PutUints(e, m.CondTaken[:])
}

// Load reads counters written by Save.
func (m *Mix) Load(d *checkpoint.Dec) {
	for p := range m.Count {
		checkpoint.LoadUints(d, m.Count[p][:], "mix classes")
	}
	checkpoint.LoadUints(d, m.PhysLoad[:], "mix physical loads")
	checkpoint.LoadUints(d, m.PhysStore[:], "mix physical stores")
	checkpoint.LoadUints(d, m.CondTaken[:], "mix taken branches")
}

// Save writes the cycle attribution to a checkpoint section.
func (c *Cycles) Save(e *checkpoint.Enc) {
	checkpoint.PutUints(e, c.ByCat[:])
	checkpoint.PutUints(e, c.BySyscall[:])
	checkpoint.PutUints(e, c.ByMode[:])
	e.Uint(c.Total)
}

// Load reads an attribution written by Save.
func (c *Cycles) Load(d *checkpoint.Dec) {
	checkpoint.LoadUints(d, c.ByCat[:], "cycles by category")
	checkpoint.LoadUints(d, c.BySyscall[:], "cycles by syscall")
	checkpoint.LoadUints(d, c.ByMode[:], "cycles by mode")
	c.Total = d.Uint()
}

// Save writes the series moments to a checkpoint section.
func (s *Series) Save(e *checkpoint.Enc) {
	e.Uint(s.N)
	e.Float(s.Sum)
	e.Float(s.SumSq)
}

// Load reads moments written by Save.
func (s *Series) Load(d *checkpoint.Dec) {
	s.N = d.Uint()
	s.Sum = d.Float()
	s.SumSq = d.Float()
}

// Save writes the histogram to a checkpoint section. Buckets are a column:
// a latency histogram is mostly empty.
func (h *Hist) Save(e *checkpoint.Enc) {
	e.Uint(h.Count)
	e.Uint(h.Sum)
	e.Uint(h.Over)
	e.Column(len(h.Buckets), func(i int) uint64 { return h.Buckets[i] })
}

// Load reads a histogram written by Save.
func (h *Hist) Load(d *checkpoint.Dec) {
	h.Count = d.Uint()
	h.Sum = d.Uint()
	h.Over = d.Uint()
	clear(h.Buckets[:])
	d.Column(len(h.Buckets), func(i int, v uint64) { h.Buckets[i] = v })
}
