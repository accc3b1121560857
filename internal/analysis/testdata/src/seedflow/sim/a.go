// Fixture for the seedflow analyzer: every generator must derive its seed
// from the partition stream, with a subsystem-unique derivation, and must
// stay fixed after construction.
package sim

import "repro/internal/rng"

type config struct {
	Seed  uint64
	Width int
}

type system struct {
	r *rng.Rand
}

// NewSystem constructs the generators; assignments here are exempt.
func NewSystem(cfg config) *system {
	s := &system{}
	s.r = rng.New(cfg.Seed ^ 0x1001)
	return s
}

func badLiteral() *rng.Rand {
	return rng.New(42) // want `generator is seeded with the constant 42`
}

func badDerivation(cfg config) *rng.Rand {
	return rng.New(uint64(cfg.Width) * 2654435761) // want `seed expression .* does not derive from a partition stream`
}

// aliased repeats NewSystem's derivation fingerprint: same stream.
func aliased(cfg config) *rng.Rand {
	return rng.New(cfg.Seed ^ 0x1001) // want `seed derivation \{4097\} duplicates the stream created at`
}

// distinct mixes a different constant in, so it gets its own stream.
func distinct(cfg config) *rng.Rand {
	return rng.New(cfg.Seed ^ 0x2002)
}

// reseed replaces a generator outside construction: flagged.
func (s *system) reseed(cfg config) {
	s.r = rng.New(cfg.Seed ^ 0x3003) // want `stored generator s\.r is replaced outside a New\*/Restore\* function \(reseed\)`
}

// RestoreSystem rebuilds a generator from a checkpoint; exempt.
func RestoreSystem(s *system, cfg config) {
	s.r = rng.New(cfg.Seed ^ 0x4004)
}
