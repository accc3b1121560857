// Checkpoint serialization for the fault injector — all four RNG streams
// and the injection counters, so a restored run replays the same fault
// schedule — and for its configuration, which rides in the checkpoint's
// meta section and in the library fingerprint.
package faults

import "repro/internal/checkpoint"

// Sync syncs the injector's mutable state.
func (i *Injector) Sync(c *checkpoint.Codec) {
	i.netRng.Sync(c)
	i.procRng.Sync(c)
	i.ovlRng.Sync(c)
	i.exhRng.Sync(c)
	c.Uint(&i.squeezeTick)
	c.Bool(&i.squeezeArmed)
	c.Uint(&i.DroppedToServer)
	c.Uint(&i.DroppedToClient)
	c.Uint(&i.Corrupted)
	c.Uint(&i.Delayed)
	c.Uint(&i.Crashes)
	c.Uint(&i.Squeezes)
}

// Sync syncs the configuration.
func (cf *Config) Sync(c *checkpoint.Codec) {
	c.Uint(&cf.Seed)
	for _, f := range [...]*float64{&cf.LossRate, &cf.CorruptRate, &cf.DelayRate, &cf.CrashRate,
		&cf.SlowClientRate, &cf.StormClientRate, &cf.MemSqueezeFrac, &cf.PoolSqueezeFrac} {
		c.Float(f)
	}
	for _, v := range [...]*int{&cf.MaxDelayTicks, &cf.RetryTimeoutTicks, &cf.BackoffCapTicks,
		&cf.MaxRetries, &cf.TrickleTicks, &cf.StormHoldTicks, &cf.BurstEvery, &cf.BurstSize,
		&cf.SqueezeAtTick, &cf.SqueezeJitterTicks} {
		checkpoint.I(c, v)
	}
	c.Uint(&cf.MaxCrashes)
	c.Uint(&cf.LivelockWindow)
}
