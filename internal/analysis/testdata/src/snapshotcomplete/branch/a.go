// Fixture for snapshotcomplete: a field touched only under a branch on the
// codec's direction is flagged, whichever direction the branch takes and
// however it is reached.
package branch

// Codec stands in for the checkpoint section codec.
type Codec struct {
	loading bool
	buf     []uint64
}

func (c *Codec) Loading() bool { return c.loading }

func (c *Codec) Uint(p *uint64) {
	if c.loading {
		*p, c.buf = c.buf[0], c.buf[1:]
		return
	}
	c.buf = append(c.buf, *p)
}

// LoadOnly reads b back but never writes it.
type LoadOnly struct {
	a uint64
	b uint64 // want `field LoadOnly\.b is referenced in Sync only under a branch on the codec's direction`
}

func (t *LoadOnly) Sync(c *Codec) {
	c.Uint(&t.a)
	if c.Loading() {
		c.Uint(&t.b)
	}
}

// SaveOnly writes b in the else of a load branch.
type SaveOnly struct {
	a uint64
	b uint64 // want `field SaveOnly\.b is referenced in Sync only under a branch on the codec's direction`
}

func (t *SaveOnly) Sync(c *Codec) {
	if c.Loading() && t.a == 0 {
		c.Uint(&t.a)
	} else {
		c.Uint(&t.b)
	}
	c.Uint(&t.a)
}

// Helper reaches b through a same-type helper called under the branch.
type Helper struct {
	a uint64
	b uint64 // want `field Helper\.b is referenced in Sync only under a branch on the codec's direction`
}

func (t *Helper) Sync(c *Codec) {
	c.Uint(&t.a)
	if !c.Loading() {
		t.syncB(c)
	}
}

func (t *Helper) syncB(c *Codec) { c.Uint(&t.b) }

// Early touches b only after returning when the codec writes.
type Early struct {
	a uint64
	b uint64 // want `field Early\.b is referenced in Sync only under a branch on the codec's direction`
}

func (t *Early) Sync(c *Codec) {
	c.Uint(&t.a)
	if !c.Loading() {
		return
	}
	c.Uint(&t.b)
}
