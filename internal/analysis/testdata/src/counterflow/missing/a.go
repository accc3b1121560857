// Fixture for the counterflow analyzer. This package is its own report sink
// (a package-level Take), so its monotone counters must be read on some path
// from Take, and every Snapshot field must be captured by Take. Delta is not
// checked: the real sink differences every field in one reflective walk.
package missing

// core is the counted subsystem.
type core struct {
	hits     uint64
	misses   uint64 // want `monotone counter core\.misses is incremented at .* but never read on any path from report Take`
	retries  uint64
	ticks    uint64 //detlint:ignore counterflow fixture: tick clock, not a metric
	lowWater uint64
	fills    uint64 // want `monotone counter core\.fills is incremented at .* but never read on any path from report Take`
	stalls   uint64 // want `monotone counter core\.stalls is incremented at .* but never read on any path from report Take`
}

func (c *core) hit()   { c.hits++ }
func (c *core) miss()  { c.misses++ }
func (c *core) retry() { c.retries += 2 }
func (c *core) tick()  { c.ticks++ }

// fill and stall count; the checkpoint codec's Sync and sync* methods may
// reassign a counter without making it less of one.
func (c *core) fill()  { c.fills++ }
func (c *core) stall() { c.stalls++ }

func (c *core) Sync(loaded uint64) {
	c.fills = loaded
	c.syncStalls(loaded)
}

func (c *core) syncStalls(loaded uint64) { c.stalls = loaded }

// drain reassigns lowWater outside a New*/Reset*/Sync* function, so it is
// not monotone and not subject to the contract.
func (c *core) drain() {
	c.lowWater++
	c.lowWater = 0
}

// Snapshot is the report type Take returns.
type Snapshot struct {
	Hits    uint64
	Retries uint64
	Stalls  uint64
	Ghost   uint64 // want `snapshot field Snapshot\.Ghost is never captured by Take and will always read zero`
	Phantom uint64 // want `snapshot field Snapshot\.Phantom is never captured by Take and will always read zero`
}

// Take captures the counters, one directly and one through an accessor.
func Take(c *core) Snapshot {
	return Snapshot{
		Hits:    c.hits,
		Retries: c.retryCount(),
		Stalls:  c.stallEstimate(),
	}
}

func (c *core) retryCount() uint64    { return c.retries }
func (c *core) stallEstimate() uint64 { return c.hits / 2 }

// Delta differences two snapshots. Referencing Phantom here does not count
// as capturing it.
func Delta(a, b Snapshot) Snapshot {
	return Snapshot{
		Hits:    b.Hits - a.Hits,
		Retries: b.Retries - a.Retries,
		Phantom: b.Phantom - a.Phantom,
	}
}
