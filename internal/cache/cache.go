// Package cache models the simulated memory hierarchy of the paper's
// Table 1: 128 KB 2-way L1 instruction and data caches (64-byte lines,
// 2-cycle fill penalty), a 16 MB direct-mapped fully-pipelined L2 with
// 20-cycle latency, 32-entry MSHRs at each level, a 256-bit L1–L2 bus and a
// 128-bit memory bus in front of 90-cycle physical memory.
//
// Each cache line carries ownership metadata so that misses can be
// classified by cause (Tables 3 and 7) and hits on lines fetched by another
// thread can be counted as constructive interthread sharing (Table 8).
//
// Timing simplification: tags are updated at access time (allocate-on-miss)
// while the fill's *timing* is tracked by the hierarchy's MSHR table. A
// second thread touching a line whose fill is still in flight therefore hits
// in the tags but inherits the in-flight completion time — which is exactly
// MSHR merging, and is counted as an avoided miss for Table 8.
package cache

import (
	"fmt"

	"repro/internal/conflict"
)

// Config describes one cache.
type Config struct {
	// Name identifies the cache in reports ("L1I", "L1D", "L2").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity (1 = direct mapped).
	Ways int
	// LineShift is log2 of the line size (6 = 64-byte lines).
	LineShift int
}

// line is one tag entry, laid out widest first with the filling agent
// flattened into its TID and privilege bit, so it takes 32 bytes
// (TestLineSize): two to a host cache line.
type line struct {
	tag     uint64
	lastUse uint64
	touched uint64 // bitmask of tid&63 that hit since fill
	// fillerTID and fillerPriv are the conflict.Agent that filled the line.
	fillerTID  uint32
	fillerPriv bool
	valid      bool
	dirty      bool
}

// Cache is one level of the hierarchy (tags + metadata only; the simulator
// does not carry data).
type Cache struct {
	cfg       Config //detlint:ignore snapshotcomplete configuration fixed at construction
	setMask   uint64 //detlint:ignore snapshotcomplete geometry derived from cfg at construction (sets-1; sets is a power of two)
	lines     []line // sets × ways, row-major
	tick      uint64 //detlint:ignore counterflow LRU clock, timekeeping not a metric
	tracker   *conflict.Tracker
	lineShift uint //detlint:ignore snapshotcomplete geometry derived from cfg at construction

	// Accesses and Misses are indexed by accessor privilege (0 user, 1 kernel).
	Accesses [2]uint64
	Misses   [2]uint64
	// Causes is the miss-cause matrix (Tables 3 and 7).
	Causes conflict.Matrix
	// Shared is the constructive-sharing matrix (Table 8).
	Shared conflict.Sharing
	// Invalidations counts lines removed by explicit flushes.
	Invalidations uint64
	// Writebacks counts dirty evictions.
	Writebacks uint64
}

// New builds a cache from cfg. It panics on a malformed geometry, since
// configurations are static. The set count must be a power of two, so a
// set index is a mask rather than a division on every access.
func New(cfg Config) *Cache {
	lineSize := 1 << cfg.LineShift
	if cfg.SizeBytes <= 0 || cfg.Ways <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("cache %s: bad geometry %+v", cfg.Name, cfg))
	}
	nLines := cfg.SizeBytes / lineSize
	if nLines%cfg.Ways != 0 || nLines == 0 {
		panic(fmt.Sprintf("cache %s: %d lines not divisible by %d ways", cfg.Name, nLines, cfg.Ways))
	}
	sets := nLines / cfg.Ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets is not a power of two", cfg.Name, sets))
	}
	return &Cache{
		cfg:       cfg,
		setMask:   uint64(sets - 1),
		lines:     make([]line, nLines),
		tracker:   conflict.NewTracker(),
		lineShift: uint(cfg.LineShift),
	}
}

// Name returns the cache's name.
func (c *Cache) Name() string { return c.cfg.Name }

// LineAddr returns the line-aligned address of paddr.
func (c *Cache) LineAddr(paddr uint64) uint64 { return paddr >> c.lineShift }

func (c *Cache) set(lineAddr uint64) []line {
	s := int(lineAddr & c.setMask)
	return c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
}

// locate decodes paddr into its line address and the set that can hold it —
// the single address-decode path shared by Access and Probe.
func (c *Cache) locate(paddr uint64) (la uint64, set []line) {
	la = paddr >> c.lineShift
	return la, c.set(la)
}

// Access looks up paddr for agent ag; write marks the line dirty. On a miss
// the line is allocated (evicting LRU within the set) and the miss is
// classified. The return value is true on a hit.
func (c *Cache) Access(paddr uint64, ag conflict.Agent, write bool) bool {
	c.tick++
	pi := privIndex(ag.Priv)
	c.Accesses[pi]++
	la, set := c.locate(paddr)
	victim := 0
	var oldest uint64 = ^uint64(0)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == la {
			l.lastUse = c.tick
			if write {
				l.dirty = true
			}
			bit := uint64(1) << (ag.TID & 63)
			if l.fillerTID != ag.TID && l.touched&bit == 0 {
				c.Shared.Add(ag, conflict.Agent{TID: l.fillerTID, Priv: l.fillerPriv})
			}
			l.touched |= bit
			return true
		}
		if !l.valid {
			victim = i
			oldest = 0
		} else if l.lastUse < oldest {
			victim = i
			oldest = l.lastUse
		}
	}
	c.Misses[pi]++
	c.Causes.Add(ag, c.tracker.Classify(la, ag))
	v := &set[victim]
	if v.valid {
		c.tracker.Evicted(v.tag, ag)
		if v.dirty {
			c.Writebacks++
		}
	}
	c.tracker.FirstSeen(la, ag)
	*v = line{
		tag:        la,
		lastUse:    c.tick,
		touched:    uint64(1) << (ag.TID & 63),
		fillerTID:  ag.TID,
		fillerPriv: ag.Priv,
		valid:      true,
		dirty:      write,
	}
	return false
}

// Probe reports residency without side effects.
//
//detlint:hot read-only residency check, safe from any audit or model loop
func (c *Cache) Probe(paddr uint64) bool {
	la, set := c.locate(paddr)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == la {
			return true
		}
	}
	return false
}

// InvalidateRange removes every line overlapping [base, base+size) —
// the architectural cache-flush command used by the OS, e.g. when remapping
// an instruction page (which the paper identifies as the dominant source of
// kernel-induced I-cache misses).
func (c *Cache) InvalidateRange(base, size uint64) int {
	n := 0
	first := base >> c.lineShift
	last := (base + size - 1) >> c.lineShift
	for la := first; la <= last; la++ {
		set := c.set(la)
		for i := range set {
			l := &set[i]
			if l.valid && l.tag == la {
				c.tracker.Invalidated(la)
				if l.dirty {
					c.Writebacks++
				}
				l.valid = false
				n++
			}
		}
	}
	c.Invalidations += uint64(n)
	return n
}

// Flush invalidates the entire cache (the Alpha's whole-cache flush
// command; on SMT this flushes the thread-shared cache, §2.2.2).
func (c *Cache) Flush() int {
	n := 0
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid {
			c.tracker.Invalidated(l.tag)
			if l.dirty {
				c.Writebacks++
			}
			l.valid = false
			n++
		}
	}
	c.Invalidations += uint64(n)
	return n
}

// MissRate returns the miss rate in percent for one privilege class.
func (c *Cache) MissRate(priv bool) float64 {
	pi := privIndex(priv)
	if c.Accesses[pi] == 0 {
		return 0
	}
	return 100 * float64(c.Misses[pi]) / float64(c.Accesses[pi])
}

// MissRateOverall returns the total miss rate in percent.
func (c *Cache) MissRateOverall() float64 {
	acc := c.Accesses[0] + c.Accesses[1]
	if acc == 0 {
		return 0
	}
	return 100 * float64(c.Misses[0]+c.Misses[1]) / float64(acc)
}

func privIndex(priv bool) int {
	if priv {
		return 1
	}
	return 0
}
