// Package faults is the deterministic fault-injection subsystem of the
// reproduction's resilience layer. The paper's measurement stack assumes a
// perfect world — a lossless zero-latency network (§2.3), an Apache pool
// that never loses a worker, and a simulator that either finishes or
// panics. This package parameterizes three fault domains so the degraded
// modes can be measured too:
//
//   - network: per-frame loss, corruption, and delay on the simulated wire
//     (package netsim reacts with client timeout + retransmit under capped
//     exponential backoff);
//   - process: Apache worker crashes at syscall boundaries (package kernel
//     reacts by running the exit path, tearing the address space down, and
//     re-forking a replacement worker);
//   - overload: misbehaving client populations — slowloris-style trickle
//     senders, keep-alive storms that hold connections across long think
//     times, and flash-crowd arrival bursts (package kernel reacts with a
//     bounded accept backlog and per-connection idle reaping; see FAULTS.md
//     "Overload");
//   - simulation guardrails: a watchdog (core.RunChecked) that detects
//     livelock and deadline overrun, and converts engine panics into
//     structured errors carrying a diagnostic snapshot.
//
// Everything is seeded and replayable: each fault domain draws from its own
// deterministic stream, so the same seed and fault configuration produce
// bit-identical metrics across runs. A zero Config disables injection
// entirely and, by construction, perturbs nothing: disabled paths consume
// no randomness, so fault-free runs are bit-identical to a build without
// this package.
package faults

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Defaults for the client retry machinery and the watchdog.
const (
	// DefaultRetryTimeoutTicks is the initial client retransmit timeout in
	// 10 ms network ticks.
	DefaultRetryTimeoutTicks = 3
	// DefaultBackoffCapTicks caps the exponential retransmit backoff.
	DefaultBackoffCapTicks = 48
	// DefaultMaxRetries is how many retransmits a client attempts before
	// abandoning the request and reconnecting fresh.
	DefaultMaxRetries = 5
	// DefaultLivelockWindow is the watchdog's no-retirement window in
	// cycles before a run is declared livelocked.
	DefaultLivelockWindow = 2_000_000
	// DefaultTrickleTicks is the gap between request chunks a slow-trickle
	// client sends, in 10 ms network ticks.
	DefaultTrickleTicks = 8
	// DefaultStormHoldTicks is how long a keep-alive-storm client holds its
	// connection idle between requests, in network ticks.
	DefaultStormHoldTicks = 64
	// DefaultBurstSize is how many dormant flash-crowd clients activate per
	// burst.
	DefaultBurstSize = 32
	// DefaultSqueezeAtTick is the network tick at which an enabled
	// exhaustion squeeze takes effect when SqueezeAtTick is 0.
	DefaultSqueezeAtTick = 50
)

// Config parameterizes fault injection. The zero value disables every
// domain (the default, zero-perturbation configuration).
type Config struct {
	// Seed drives all fault sampling; 0 lets the simulation derive one
	// from its own seed so that fault decisions are replayable.
	Seed uint64

	// LossRate is the per-frame probability the wire drops a frame
	// (either direction).
	LossRate float64
	// CorruptRate is the per-frame probability a frame arrives damaged;
	// the receiver discards it after paying the protocol-stack cost.
	CorruptRate float64
	// DelayRate is the per-frame probability a frame is held in transit.
	DelayRate float64
	// MaxDelayTicks is the maximum in-transit delay in network ticks
	// (uniform 1..MaxDelayTicks; 0 means a default of 2 when DelayRate>0).
	MaxDelayTicks int

	// RetryTimeoutTicks overrides the initial client retransmit timeout
	// (0 = DefaultRetryTimeoutTicks).
	RetryTimeoutTicks int
	// BackoffCapTicks overrides the retransmit backoff cap
	// (0 = DefaultBackoffCapTicks).
	BackoffCapTicks int
	// MaxRetries overrides the per-request retransmit budget
	// (0 = DefaultMaxRetries).
	MaxRetries int

	// CrashRate is the per-syscall-boundary probability that an Apache
	// worker process dies mid-request.
	CrashRate float64
	// MaxCrashes caps total injected crashes (0 = unlimited).
	MaxCrashes uint64

	// LivelockWindow is the watchdog's no-retirement window in cycles for
	// core.RunChecked (0 = DefaultLivelockWindow).
	LivelockWindow uint64

	// SlowClientRate is the probability a simulated client is a
	// slowloris-style trickle sender: it opens a connection with a bare SYN
	// and dribbles its request in chunks every TrickleTicks, occupying a
	// server worker (or backlog slot) the whole time.
	SlowClientRate float64
	// TrickleTicks is the gap between a slow client's request chunks in
	// network ticks (0 = DefaultTrickleTicks).
	TrickleTicks int
	// StormClientRate is the probability a client is a keep-alive storm
	// client: it completes requests normally but holds its connection open
	// across StormHoldTicks of think time, pinning a worker in a blocked
	// read until the kernel's idle reaper intervenes.
	StormClientRate float64
	// StormHoldTicks is a storm client's idle hold between requests in
	// network ticks (0 = DefaultStormHoldTicks).
	StormHoldTicks int
	// BurstEvery, when > 0, activates a flash-crowd burst of BurstSize
	// dormant clients every BurstEvery network ticks; each opens a fresh
	// one-shot connection, spiking the accept backlog.
	BurstEvery int
	// BurstSize is the number of clients per flash-crowd burst
	// (0 = DefaultBurstSize).
	BurstSize int

	// MemSqueezeFrac, when > 0, is the fraction of effective physical
	// memory the exhaustion domain removes mid-run: the kernel caps the
	// frame allocator at (1-frac) of its pre-squeeze effective size,
	// forcing the low-watermark reclaimer to page under pressure.
	MemSqueezeFrac float64
	// PoolSqueezeFrac, when > 0, shrinks the kernel's bounded resource
	// pools (socket table, mbuf pool, process table, per-process FD limit)
	// to (1-frac) of their configured capacities mid-run; exhaustion then
	// surfaces as structured syscall errors and refused SYNs that clients
	// recover from via retransmit/backoff.
	PoolSqueezeFrac float64
	// SqueezeAtTick is the network tick at which the squeeze lands
	// (0 = DefaultSqueezeAtTick when a squeeze fraction is set).
	SqueezeAtTick int
	// SqueezeJitterTicks adds a seeded uniform 0..N jitter to the squeeze
	// tick, so sweeps can decorrelate the squeeze from workload phases.
	SqueezeJitterTicks int
}

// Enabled reports whether any fault domain injects (the client retry
// machinery arms whenever this is true, so crashes are recoverable even
// without network faults).
func (c Config) Enabled() bool {
	return c.LossRate > 0 || c.CorruptRate > 0 || c.DelayRate > 0 || c.CrashRate > 0 ||
		c.OverloadEnabled() || c.ExhaustEnabled()
}

// ExhaustEnabled reports whether the exhaustion domain squeezes anything.
// Exhaustion counts as a fault domain for Enabled so that clients arm their
// retry machinery — a SYN dropped by a full socket table or mbuf pool is
// recovered through the ordinary retransmit path.
func (c Config) ExhaustEnabled() bool {
	return c.MemSqueezeFrac > 0 || c.PoolSqueezeFrac > 0
}

// OverloadEnabled reports whether any overload client behavior is
// configured. Overload counts as a fault domain for Enabled so that clients
// arm their retry machinery — a SYN refused by a full accept backlog is
// recovered through the ordinary retransmit path.
func (c Config) OverloadEnabled() bool {
	return c.SlowClientRate > 0 || c.StormClientRate > 0 || c.BurstEvery > 0
}

// Validate rejects nonsensical fault parameters.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"LossRate", c.LossRate},
		{"CorruptRate", c.CorruptRate},
		{"DelayRate", c.DelayRate},
		{"CrashRate", c.CrashRate},
		{"SlowClientRate", c.SlowClientRate},
		{"StormClientRate", c.StormClientRate},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faults: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if c.MaxDelayTicks < 0 {
		return fmt.Errorf("faults: negative MaxDelayTicks %d", c.MaxDelayTicks)
	}
	if c.RetryTimeoutTicks < 0 || c.BackoffCapTicks < 0 || c.MaxRetries < 0 {
		return fmt.Errorf("faults: negative retry parameter (timeout %d, cap %d, retries %d)",
			c.RetryTimeoutTicks, c.BackoffCapTicks, c.MaxRetries)
	}
	// A client keeps its retry count and backoff interval in int32s.
	for _, p := range []struct {
		name string
		v    int
	}{
		{"RetryTimeoutTicks", c.RetryTimeoutTicks},
		{"BackoffCapTicks", c.BackoffCapTicks},
		{"MaxRetries", c.MaxRetries},
	} {
		if p.v > math.MaxInt32 {
			return fmt.Errorf("faults: %s %d exceeds %d", p.name, p.v, math.MaxInt32)
		}
	}
	if c.TrickleTicks < 0 || c.StormHoldTicks < 0 {
		return fmt.Errorf("faults: negative overload tick parameter (trickle %d, storm hold %d)",
			c.TrickleTicks, c.StormHoldTicks)
	}
	if c.BurstEvery < 0 || c.BurstSize < 0 {
		return fmt.Errorf("faults: negative burst parameter (every %d, size %d)",
			c.BurstEvery, c.BurstSize)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"MemSqueezeFrac", c.MemSqueezeFrac},
		{"PoolSqueezeFrac", c.PoolSqueezeFrac},
	} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("faults: %s %v outside [0,1)", p.name, p.v)
		}
	}
	if c.SqueezeAtTick < 0 || c.SqueezeJitterTicks < 0 {
		return fmt.Errorf("faults: negative squeeze parameter (at %d, jitter %d)",
			c.SqueezeAtTick, c.SqueezeJitterTicks)
	}
	return nil
}

// withDefaults fills zero retry/delay parameters.
func (c Config) withDefaults() Config {
	if c.RetryTimeoutTicks == 0 {
		c.RetryTimeoutTicks = DefaultRetryTimeoutTicks
	}
	if c.BackoffCapTicks == 0 {
		c.BackoffCapTicks = DefaultBackoffCapTicks
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = DefaultMaxRetries
	}
	if c.MaxDelayTicks == 0 {
		c.MaxDelayTicks = 2
	}
	if c.TrickleTicks == 0 {
		c.TrickleTicks = DefaultTrickleTicks
	}
	if c.StormHoldTicks == 0 {
		c.StormHoldTicks = DefaultStormHoldTicks
	}
	if c.BurstSize == 0 {
		c.BurstSize = DefaultBurstSize
	}
	if c.SqueezeAtTick == 0 {
		c.SqueezeAtTick = DefaultSqueezeAtTick
	}
	return c
}

// Injector samples fault decisions and accumulates counters. Each domain
// draws from its own stream so that, e.g., enabling crashes does not
// perturb which network frames are dropped.
type Injector struct {
	Cfg Config //detlint:ignore snapshotcomplete configuration fixed at construction

	netRng  *rng.Rand
	procRng *rng.Rand
	ovlRng  *rng.Rand
	exhRng  *rng.Rand

	// squeezeTick is the armed exhaustion-squeeze tick (jitter applied
	// once, so replays and restores see the same schedule).
	squeezeTick  uint64
	squeezeArmed bool

	// DroppedToServer / DroppedToClient count frames the wire lost, by
	// direction; Corrupted counts frames delivered damaged; Delayed counts
	// frames held in transit.
	DroppedToServer uint64
	DroppedToClient uint64
	Corrupted       uint64
	Delayed         uint64
	// Crashes counts injected worker deaths.
	Crashes uint64
	// Squeezes counts exhaustion squeezes applied by the kernel.
	Squeezes uint64
}

// NewInjector builds an injector. Call only with a validated config; the
// zero-rate domains never sample their stream.
func NewInjector(cfg Config) *Injector {
	cfg = cfg.withDefaults()
	return &Injector{
		Cfg:     cfg,
		netRng:  rng.New(cfg.Seed ^ 0x6e657466_61756c74), // "netfault"
		procRng: rng.New(cfg.Seed ^ 0x70726f63_66617574), // "procfaut"
		ovlRng:  rng.New(cfg.Seed ^ 0x6f766572_6c6f6164), // "overload"
		exhRng:  rng.New(cfg.Seed ^ 0x65786861_75737421), // "exhaust!"
	}
}

// SqueezeTick returns the network tick at which the exhaustion squeeze takes
// effect, arming it (applying the seeded jitter once) on first call. ok is
// false when the exhaustion domain is disabled.
func (i *Injector) SqueezeTick() (tick uint64, ok bool) {
	if !i.Cfg.ExhaustEnabled() {
		return 0, false
	}
	if !i.squeezeArmed {
		t := uint64(i.Cfg.SqueezeAtTick)
		if i.Cfg.SqueezeJitterTicks > 0 {
			t += uint64(i.exhRng.Intn(i.Cfg.SqueezeJitterTicks + 1))
		}
		i.squeezeTick = t
		i.squeezeArmed = true
	}
	return i.squeezeTick, true
}

// DropFrame decides whether the wire loses a frame.
func (i *Injector) DropFrame() bool {
	return i.Cfg.LossRate > 0 && i.netRng.Bool(i.Cfg.LossRate)
}

// CorruptFrame decides whether a frame arrives damaged.
func (i *Injector) CorruptFrame() bool {
	if i.Cfg.CorruptRate > 0 && i.netRng.Bool(i.Cfg.CorruptRate) {
		i.Corrupted++
		return true
	}
	return false
}

// DelayTicks returns the in-transit delay for a frame (0 = deliver now).
func (i *Injector) DelayTicks() int {
	if i.Cfg.DelayRate <= 0 || !i.netRng.Bool(i.Cfg.DelayRate) {
		return 0
	}
	i.Delayed++
	return 1 + i.netRng.Intn(i.Cfg.MaxDelayTicks)
}

// SlowClient decides whether one client of the population is a
// slow-trickle sender (sampled once per client at wiring time).
func (i *Injector) SlowClient() bool {
	return i.Cfg.SlowClientRate > 0 && i.ovlRng.Bool(i.Cfg.SlowClientRate)
}

// StormClient decides whether one client is a keep-alive storm client
// (sampled once per client at wiring time).
func (i *Injector) StormClient() bool {
	return i.Cfg.StormClientRate > 0 && i.ovlRng.Bool(i.Cfg.StormClientRate)
}

// CrashNow decides whether a worker dies at this syscall boundary.
func (i *Injector) CrashNow() bool {
	if i.Cfg.CrashRate <= 0 {
		return false
	}
	if i.Cfg.MaxCrashes > 0 && i.Crashes >= i.Cfg.MaxCrashes {
		return false
	}
	if !i.procRng.Bool(i.Cfg.CrashRate) {
		return false
	}
	i.Crashes++
	return true
}
