// Package tlb models the Alpha-style translation lookaside buffers of the
// simulated SMT: 128-entry fully-associative ITLB and DTLB whose entries are
// tagged with address-space numbers (ASNs), as described in §2.2.2 of the
// paper.
//
// Because SMT shares one TLB among all hardware contexts (unlike an SMP,
// where each processor has its own), ASN management is the one piece of
// Digital Unix the authors had to modify. The behavioral kernel in
// internal/kernel performs that management against this model: it assigns
// ASNs to processes, inserts entries from the PAL miss handlers (in parallel
// across contexts, thanks to the paper's replicated internal processor
// registers), and recycles ASNs — which invalidates entries here and shows
// up as "invalidation by the OS" misses in Table 7.
package tlb

import (
	"fmt"
	"math/bits"

	"repro/internal/conflict"
	"repro/internal/mem"
)

// GlobalASN tags entries that match in every address space (Alpha's
// address-space-match bit, used for the shared kernel region).
const GlobalASN = 0xffff

// Entry is one TLB entry.
type Entry struct {
	valid   bool
	asn     uint16
	vpn     uint64
	pfn     uint64
	lastUse uint64
	filler  conflict.Agent
	// touched is a small bitmask of thread IDs (tid mod 64) that have hit
	// this entry since fill; used for the constructive-sharing statistic.
	touched uint64
}

// TLB is a fully-associative, LRU-replaced translation buffer.
type TLB struct {
	name    string //detlint:ignore snapshotcomplete diagnostic label fixed at construction
	entries []Entry
	tick    uint64 //detlint:ignore counterflow LRU clock, timekeeping not a metric
	tracker *conflict.Tracker
	// dmHead/dmNext form a chained hash index over the valid entries, keyed
	// by key(asn, vpn): dmHead[h] holds slot+1 of the first entry in bucket
	// h (0 = empty), dmNext[s] the next slot+1 in the same bucket. Every
	// valid entry is linked at all times, so a failed bucket walk IS a
	// definitive miss — find needs no fallback scan, and its result is
	// exactly what a scan of the fully-associative array would produce,
	// independent of the index's insertion history. The index is derived
	// state: Sync rebuilds it from the entries when loading.
	dmHead  []int32 //detlint:ignore snapshotcomplete derived lookup index rebuilt from entries by Sync
	dmNext  []int32 //detlint:ignore snapshotcomplete derived lookup index rebuilt from entries by Sync
	dmShift uint8   //detlint:ignore snapshotcomplete geometry fixed at construction

	// Accesses and Misses are indexed by accessor privilege (0 user, 1 kernel).
	Accesses [2]uint64
	Misses   [2]uint64
	// Causes is the Table 3 / Table 7 miss-cause matrix.
	Causes conflict.Matrix
	// Shared is the Table 8 constructive-sharing matrix.
	Shared conflict.Sharing
	// Invalidations counts entries removed by explicit OS action.
	Invalidations uint64
}

// New returns a TLB with the given number of entries.
func New(name string, entries int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("tlb: %s with %d entries", name, entries))
	}
	n := dmSize(entries)
	return &TLB{
		name:    name,
		entries: make([]Entry, entries),
		tracker: conflict.NewTracker(),
		dmHead:  make([]int32, n),
		dmNext:  make([]int32, entries),
		dmShift: uint8(64 - (bits.Len(uint(n)) - 1)),
	}
}

// dmSize returns the hash-bucket count for a TLB with n entries: a power of
// two at least 4x the entry count, so bucket chains stay short.
func dmSize(n int) int {
	s := 256
	for s < 4*n {
		s <<= 1
	}
	return s
}

// Name returns the TLB's name (for reports).
func (t *TLB) Name() string { return t.name }

// Size returns the number of entries.
func (t *TLB) Size() int { return len(t.entries) }

// key builds the classification key for (asn, vpn). Global pages share one
// key regardless of ASN.
func key(asn uint16, vpn uint64) uint64 {
	return vpn<<16 | uint64(asn)
}

// dmSlot hashes a key into a bucket (Fibonacci hashing: the high bits of
// the product mix every key bit).
func (t *TLB) dmSlot(k uint64) uint64 {
	return (k * 0x9e3779b97f4a7c15) >> t.dmShift
}

// dmLink adds the valid entry at slot, keyed by k, to the index.
func (t *TLB) dmLink(k uint64, slot int32) {
	h := t.dmSlot(k)
	t.dmNext[slot] = t.dmHead[h]
	t.dmHead[h] = slot + 1
}

// dmUnlink removes the entry at slot, keyed by k, from the index. It must
// be called before the entry is invalidated or its key overwritten.
func (t *TLB) dmUnlink(k uint64, slot int32) {
	h := t.dmSlot(k)
	p := &t.dmHead[h]
	for *p != 0 {
		if *p == slot+1 {
			*p = t.dmNext[slot]
			t.dmNext[slot] = 0
			return
		}
		p = &t.dmNext[*p-1]
	}
}

// find returns the slot holding the valid entry for (asn, vpn). Insert
// keeps at most one valid entry per key, so the bucket walk's result does
// not depend on chain order; a miss here is definitive.
func (t *TLB) find(asn uint16, vpn uint64) (int32, bool) {
	for s := t.dmHead[t.dmSlot(key(asn, vpn))]; s != 0; s = t.dmNext[s-1] {
		e := &t.entries[s-1]
		if e.valid && e.asn == asn && e.vpn == vpn {
			return s - 1, true
		}
	}
	return 0, false
}

// Lookup translates vaddr in address space asn. On a hit it returns the
// physical address and true; on a miss it classifies the miss and returns
// false (the caller then runs the PAL miss handler, which will Insert).
//
//detlint:hot per-access translation probe on the fetch and issue paths
func (t *TLB) Lookup(asn uint16, vaddr uint64, ag conflict.Agent) (paddr uint64, hit bool) {
	t.tick++
	pi := privIndex(ag.Priv)
	t.Accesses[pi]++
	vpn := mem.VPN(vaddr)
	slot, ok := t.find(asn, vpn)
	if !ok {
		slot, ok = t.find(GlobalASN, vpn)
	}
	if ok {
		e := &t.entries[slot]
		e.lastUse = t.tick
		// Constructive sharing: this access would have missed had
		// another thread not already loaded the entry.
		bit := uint64(1) << (ag.TID & 63)
		if e.filler.TID != ag.TID && e.touched&bit == 0 {
			t.Shared.Add(ag, e.filler)
		}
		e.touched |= bit
		return mem.FrameBase(e.pfn) | (vaddr & mem.PageMask), true
	}
	t.Misses[pi]++
	k := key(asn, vpn)
	if gk := key(GlobalASN, vpn); t.tracker.Seen(gk) && !t.tracker.Seen(k) {
		k = gk
	}
	t.Causes.Add(ag, t.tracker.Classify(k, ag))
	return 0, false
}

// Probe reports whether (asn, vaddr) is resident without touching stats or
// LRU state (used by the kernel model and tests).
func (t *TLB) Probe(asn uint16, vaddr uint64) bool {
	vpn := mem.VPN(vaddr)
	if _, ok := t.find(asn, vpn); ok {
		return true
	}
	_, ok := t.find(GlobalASN, vpn)
	return ok
}

// Insert installs a translation, evicting the LRU entry if necessary. It is
// what the PAL TLB-miss handler does after the kernel VM code produced the
// mapping.
//
//detlint:hot fill on the AppOnly translate path inside Engine.step
func (t *TLB) Insert(asn uint16, vaddr, paddr uint64, ag conflict.Agent) {
	t.tick++
	vpn := mem.VPN(vaddr)
	if slot, ok := t.find(asn, vpn); ok {
		// Refresh an existing entry (another context may have raced us in;
		// on SMT multiple contexts can process TLB misses in parallel,
		// §2.2.2).
		e := &t.entries[slot]
		e.pfn = paddr >> mem.PageShift
		e.lastUse = t.tick
		return
	}
	if slot, ok := t.find(GlobalASN, vpn); ok && asn != GlobalASN {
		e := &t.entries[slot]
		e.pfn = paddr >> mem.PageShift
		e.lastUse = t.tick
		return
	}
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			oldest = 0
			break
		}
		if e.lastUse < oldest {
			victim = i
			oldest = e.lastUse
		}
	}
	v := &t.entries[victim]
	if v.valid {
		t.tracker.Evicted(key(v.asn, v.vpn), ag)
		t.dmUnlink(key(v.asn, v.vpn), int32(victim))
	}
	t.tracker.FirstSeen(key(asn, vpn), ag)
	*v = Entry{
		valid:   true,
		asn:     asn,
		vpn:     vpn,
		pfn:     paddr >> mem.PageShift,
		lastUse: t.tick,
		filler:  ag,
		touched: uint64(1) << (ag.TID & 63),
	}
	t.dmLink(key(asn, vpn), int32(victim))
}

// InvalidateASN removes all entries of one address space (ASN recycling on
// context switch when ASNs are exhausted).
func (t *TLB) InvalidateASN(asn uint16) int {
	n := 0
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.asn == asn {
			t.tracker.Invalidated(key(e.asn, e.vpn))
			t.dmUnlink(key(e.asn, e.vpn), int32(i))
			e.valid = false
			n++
		}
	}
	t.Invalidations += uint64(n)
	return n
}

// InvalidatePage removes a single translation (e.g. on munmap). On the
// uniprocessor SMT this replaces the SMP's interprocessor TLB shootdown.
func (t *TLB) InvalidatePage(asn uint16, vaddr uint64) bool {
	vpn := mem.VPN(vaddr)
	for _, a := range [2]uint16{asn, GlobalASN} {
		if slot, ok := t.find(a, vpn); ok {
			e := &t.entries[slot]
			t.tracker.Invalidated(key(e.asn, e.vpn))
			t.dmUnlink(key(e.asn, e.vpn), slot)
			e.valid = false
			t.Invalidations++
			return true
		}
	}
	return false
}

// Flush invalidates every entry.
func (t *TLB) Flush() {
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid {
			t.tracker.Invalidated(key(e.asn, e.vpn))
			e.valid = false
			t.Invalidations++
		}
	}
	for i := range t.dmHead {
		t.dmHead[i] = 0
	}
	for i := range t.dmNext {
		t.dmNext[i] = 0
	}
}

// MissRate returns the miss rate (percent) for the given privilege class,
// or overall if priv is nil-like (use MissRateOverall).
func (t *TLB) MissRate(priv bool) float64 {
	pi := privIndex(priv)
	if t.Accesses[pi] == 0 {
		return 0
	}
	return 100 * float64(t.Misses[pi]) / float64(t.Accesses[pi])
}

// MissRateOverall returns the total miss rate in percent.
func (t *TLB) MissRateOverall() float64 {
	acc := t.Accesses[0] + t.Accesses[1]
	if acc == 0 {
		return 0
	}
	return 100 * float64(t.Misses[0]+t.Misses[1]) / float64(acc)
}

func privIndex(priv bool) int {
	if priv {
		return 1
	}
	return 0
}
