// Fixture for snapshotcomplete: a deliberately missing field is flagged on
// its declaration line.
package missing

// Codec stands in for the checkpoint section codec.
type Codec struct{ buf []uint64 }

func (c *Codec) Uint(p *uint64) { c.buf = append(c.buf, *p) }

type Core struct {
	cycles uint64
	pc     uint64
	phase  uint8 // want `field Core\.phase is not referenced in Sync`
}

func (k *Core) Sync(c *Codec) {
	c.Uint(&k.cycles)
	c.Uint(&k.pc)
}

// Machine covers one field through a helper and forgets the other.
type Machine struct {
	mode uint64
	seq  uint64 // want `field Machine\.seq is not referenced in Sync`
}

func (m *Machine) Sync(c *Codec, strict bool) { m.syncMode(c) }

func (m *Machine) syncMode(c *Codec) { c.Uint(&m.mode) }
