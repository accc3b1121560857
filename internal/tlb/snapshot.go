// Checkpoint serialization and auditor accessors for the TLB model.
package tlb

import (
	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// Per-entry flag bits in the TLB section.
const (
	entryValid = 1 << iota
	entryFillerPrv
)

// Save writes the TLB's complete mutable state.
func (t *TLB) Save(e *checkpoint.Enc) {
	e.Uint(uint64(len(t.entries)))
	for i := range t.entries {
		en := &t.entries[i]
		e.Uint(checkpoint.Flags(en.valid, en.filler.Priv))
		e.Uint(uint64(en.asn))
		e.Uint(en.vpn)
		e.Uint(en.pfn)
		e.Uint(en.lastUse)
		e.Uint(uint64(en.filler.TID))
		e.Uint(en.touched)
	}
	e.Uint(t.tick)
	t.tracker.Save(e)
	checkpoint.PutUints(e, t.Accesses[:])
	checkpoint.PutUints(e, t.Misses[:])
	t.Causes.Save(e)
	t.Shared.Save(e)
	e.Uint(t.Invalidations)
}

// Load overwrites the TLB's state from a section written by Save on a TLB
// of the same size (geometry is configuration, not state), and rebuilds
// the lookup index from the valid entries.
func (t *TLB) Load(d *checkpoint.Dec) {
	if !d.Expect(len(t.entries), "TLB entries") {
		return
	}
	clear(t.dmHead)
	clear(t.dmNext)
	for i := range t.entries {
		en := &t.entries[i]
		flags := d.Uint()
		en.valid = flags&entryValid != 0
		en.filler.Priv = flags&entryFillerPrv != 0
		en.asn = uint16(d.Uint())
		en.vpn = d.Uint()
		en.pfn = d.Uint()
		en.lastUse = d.Uint()
		en.filler.TID = uint32(d.Uint())
		en.touched = d.Uint()
		if en.valid {
			t.dmLink(key(en.asn, en.vpn), int32(i))
		}
	}
	t.tick = d.Uint()
	t.tracker.Load(d)
	checkpoint.LoadUints(d, t.Accesses[:], "TLB accesses")
	checkpoint.LoadUints(d, t.Misses[:], "TLB misses")
	t.Causes.Load(d)
	t.Shared.Load(d)
	t.Invalidations = d.Uint()
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
