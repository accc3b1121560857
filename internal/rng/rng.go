// Package rng provides the deterministic pseudo-random number generation
// used throughout the simulator.
//
// The paper's simulation framework enforces lock-step, deterministic
// execution so experiments are repeatable (§2.3). We mirror that: every
// source of randomness in this reproduction — workload instruction streams,
// memory reference patterns, SPECWeb request generation — flows from an
// explicitly seeded generator in this package. Two runs with the same
// configuration and seed produce bit-identical statistics.
//
// The generator is xoshiro256** seeded via splitmix64, implemented here
// rather than taken from math/rand so that the stream is stable across Go
// releases and so that child generators can be split off deterministically.
package rng

import (
	"math"

	"repro/internal/checkpoint"
)

// Rand is a deterministic random number generator (xoshiro256**).
// The zero value is not usable; construct with New.
type Rand struct {
	s [4]uint64
	// geo memoizes log(1-1/m) for Geometric, which is called in hot loops
	// with a handful of distinct means over and over. The memo is a pure
	// function of the arguments — not stream state — so Save/Load ignore it
	// and results are bit-identical with or without it.
	geo    [6]geoMemo //detlint:ignore snapshotcomplete derived memo of Geometric's arguments, not stream state
	geoPos uint8      //detlint:ignore snapshotcomplete derived memo cursor, not stream state
}

// geoMemo is one cached Geometric parameter (see Rand.geo).
type geoMemo struct {
	m, log float64
}

// New returns a generator seeded from seed via splitmix64.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split returns a new generator whose stream is a deterministic function of
// this generator's current state and the given label. It is used to give
// each simulated thread or subsystem an independent stream so that adding
// instructions to one thread does not perturb another.
func (r *Rand) Split(label uint64) *Rand {
	return New(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint32 returns the next 32 random bits.
func (r *Rand) Uint32() uint32 { return uint32(r.Uint64() >> 32) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with zero n")
	}
	return r.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Geometric returns a sample from a geometric distribution with mean m
// (values >= 1). It is used for run lengths such as loop trip counts.
func (r *Rand) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	u := r.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	n := 1 + int(math.Log(1-u)/r.geoLogOf(m))
	if n < 1 {
		n = 1
	}
	return n
}

// geoLogOf returns log(1-1/m), memoized round-robin over the last few
// distinct means (m > 1; the zero-valued empty slots can never match).
func (r *Rand) geoLogOf(m float64) float64 {
	for i := range r.geo {
		if r.geo[i].m == m {
			return r.geo[i].log
		}
	}
	l := math.Log(1 - 1/m)
	r.geo[r.geoPos] = geoMemo{m: m, log: l}
	r.geoPos = (r.geoPos + 1) % uint8(len(r.geo))
	return l
}

// Choose returns an index in [0, len(weights)) with probability proportional
// to weights[i]. It panics if weights is empty or sums to <= 0.
func (r *Rand) Choose(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: Choose with no positive weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Zipf samples from a Zipf-like distribution over [0, n) with exponent s,
// used for skewed access patterns such as web-object popularity. The
// implementation precomputes nothing; for the small n used by workload
// models a linear walk over the harmonic weights is fast enough — callers
// needing a large n should use NewZipf.
type Zipf struct {
	r   *Rand
	cum []float64
}

// NewZipf builds a sampler over [0, n) with exponent s > 0.
func NewZipf(r *Rand, n int, s float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	cum := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return &Zipf{r: r, cum: cum}
}

// Next returns the next sample.
func (z *Zipf) Next() int {
	u := z.r.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Save writes the generator state to a checkpoint section.
func (r *Rand) Save(e *checkpoint.Enc) { checkpoint.PutUints(e, r.s[:]) }

// Load restores a generator state written by Save.
func (r *Rand) Load(d *checkpoint.Dec) { checkpoint.LoadUints(d, r.s[:], "generator state") }
