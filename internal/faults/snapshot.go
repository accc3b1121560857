// Checkpoint serialization for the fault injector — all four RNG streams
// and the injection counters, so a restored run replays the same fault
// schedule — and for its configuration, which rides in the checkpoint's
// meta section and in the library fingerprint.
package faults

import "repro/internal/checkpoint"

// Save writes the injector's mutable state.
func (i *Injector) Save(e *checkpoint.Enc) {
	i.netRng.Save(e)
	i.procRng.Save(e)
	i.ovlRng.Save(e)
	i.exhRng.Save(e)
	e.Uint(i.squeezeTick)
	e.Bool(i.squeezeArmed)
	e.Uint(i.DroppedToServer)
	e.Uint(i.DroppedToClient)
	e.Uint(i.Corrupted)
	e.Uint(i.Delayed)
	e.Uint(i.Crashes)
	e.Uint(i.Squeezes)
}

// Load overwrites the injector's state from a section written by Save.
func (i *Injector) Load(d *checkpoint.Dec) {
	i.netRng.Load(d)
	i.procRng.Load(d)
	i.ovlRng.Load(d)
	i.exhRng.Load(d)
	i.squeezeTick = d.Uint()
	i.squeezeArmed = d.Bool()
	i.DroppedToServer = d.Uint()
	i.DroppedToClient = d.Uint()
	i.Corrupted = d.Uint()
	i.Delayed = d.Uint()
	i.Crashes = d.Uint()
	i.Squeezes = d.Uint()
}

// Save writes the configuration.
func (c *Config) Save(e *checkpoint.Enc) {
	e.Uint(c.Seed)
	for _, f := range [...]float64{c.LossRate, c.CorruptRate, c.DelayRate, c.CrashRate,
		c.SlowClientRate, c.StormClientRate, c.MemSqueezeFrac, c.PoolSqueezeFrac} {
		e.Float(f)
	}
	for _, v := range [...]int{c.MaxDelayTicks, c.RetryTimeoutTicks, c.BackoffCapTicks,
		c.MaxRetries, c.TrickleTicks, c.StormHoldTicks, c.BurstEvery, c.BurstSize,
		c.SqueezeAtTick, c.SqueezeJitterTicks} {
		e.Int(int64(v))
	}
	e.Uint(c.MaxCrashes)
	e.Uint(c.LivelockWindow)
}

// Load reads a configuration written by Save.
func (c *Config) Load(d *checkpoint.Dec) {
	c.Seed = d.Uint()
	for _, p := range [...]*float64{&c.LossRate, &c.CorruptRate, &c.DelayRate, &c.CrashRate,
		&c.SlowClientRate, &c.StormClientRate, &c.MemSqueezeFrac, &c.PoolSqueezeFrac} {
		*p = d.Float()
	}
	for _, p := range [...]*int{&c.MaxDelayTicks, &c.RetryTimeoutTicks, &c.BackoffCapTicks,
		&c.MaxRetries, &c.TrickleTicks, &c.StormHoldTicks, &c.BurstEvery, &c.BurstSize,
		&c.SqueezeAtTick, &c.SqueezeJitterTicks} {
		*p = int(d.Int())
	}
	c.MaxCrashes = d.Uint()
	c.LivelockWindow = d.Uint()
}
