// Fixture for snapshotcomplete: a deliberately missing field is flagged on
// its declaration line, for the method(s) that fail to reference it — in
// either direction.
package missing

// Enc and Dec stand in for the checkpoint section codec.
type Enc struct{ buf []uint64 }

func (e *Enc) Uint(v uint64) { e.buf = append(e.buf, v) }

type Dec struct{ buf []uint64 }

func (d *Dec) Uint() uint64 {
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

type Core struct {
	cycles uint64
	pc     uint64
	phase  uint8 // want `field Core\.phase is not referenced in Save or Load`
}

func (c *Core) Save(e *Enc) {
	e.Uint(c.cycles)
	e.Uint(c.pc)
}

func (c *Core) Load(d *Dec) {
	c.cycles = d.Uint()
	c.pc = d.Uint()
}

// Half saves b but forgets to load it back.
type Half struct {
	a uint64
	b uint64 // want `field Half\.b is not referenced in Load`
}

func (h *Half) Save(e *Enc) {
	e.Uint(h.a)
	e.Uint(h.b)
}

func (h *Half) Load(d *Dec) { h.a = d.Uint() }

// Reverse loads b but never saves it: the section the loader reads was
// never written.
type Reverse struct {
	a uint64
	b uint64 // want `field Reverse\.b is not referenced in Save`
}

func (r *Reverse) Save(e *Enc) { e.Uint(r.a) }

func (r *Reverse) Load(d *Dec) {
	r.a = d.Uint()
	r.b = d.Uint()
}

// Machine uses a Load-prefixed variant.
type Machine struct {
	mode uint64
	seq  uint64 // want `field Machine\.seq is not referenced in LoadState`
}

func (m *Machine) Save(e *Enc) {
	e.Uint(m.mode)
	e.Uint(m.seq)
}

func (m *Machine) LoadState(d *Dec, strict bool) { m.mode = d.Uint() }
