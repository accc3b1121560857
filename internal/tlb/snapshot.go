// Checkpoint serialization and auditor accessors for the TLB model.
package tlb

import (
	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// Sync syncs the entry.
func (en *Entry) Sync(c *checkpoint.Codec) {
	c.Flags(&en.valid, &en.filler.Priv)
	checkpoint.U(c, &en.asn)
	c.Uint(&en.vpn)
	c.Uint(&en.pfn)
	c.Uint(&en.lastUse)
	checkpoint.U(c, &en.filler.TID)
	c.Uint(&en.touched)
}

// Sync syncs the TLB's complete mutable state, on a TLB of the same size
// when reading (geometry is configuration, not state).
func (t *TLB) Sync(c *checkpoint.Codec) {
	if !c.Expect(len(t.entries), "TLB entries") {
		return
	}
	for i := range t.entries {
		t.entries[i].Sync(c)
	}
	if c.Loading() {
		// Derived state: the lookup index is rebuilt from the entries.
		clear(t.dmHead)
		clear(t.dmNext)
		for i := range t.entries {
			if en := &t.entries[i]; en.valid {
				t.dmLink(key(en.asn, en.vpn), int32(i))
			}
		}
	}
	c.Uint(&t.tick)
	t.tracker.Sync(c)
	checkpoint.Array(c, t.Accesses[:], "TLB accesses")
	checkpoint.Array(c, t.Misses[:], "TLB misses")
	t.Causes.Sync(c)
	t.Shared.Sync(c)
	c.Uint(&t.Invalidations)
}

// LiveEntry describes one valid entry for the invariant auditor.
type LiveEntry struct {
	ASN  uint16
	VPN  uint64
	PFN  uint64
	Addr uint64 // a representative virtual address within the page
}

// LiveEntries returns every valid entry (auditor access).
func (t *TLB) LiveEntries() []LiveEntry {
	var out []LiveEntry
	for _, e := range t.entries {
		if e.valid {
			out = append(out, LiveEntry{ASN: e.asn, VPN: e.vpn, PFN: e.pfn, Addr: e.vpn << mem.PageShift})
		}
	}
	return out
}
