package core

import "repro/internal/checkpoint"

// Sync syncs the options: the checkpoint's meta section carries them, and
// Fingerprint hashes their bytes. Every field must be synced, or two
// configurations that differ in it would share a checkpoint library.
func (o *Options) Sync(c *checkpoint.Codec) {
	checkpoint.U(c, &o.Processor)
	c.Uint(&o.Seed)
	c.Uint(&o.CyclesPer10ms)
	c.Uint(&o.MemFrameLimit)
	for _, p := range [...]*bool{&o.AppOnly, &o.OmitPrivileged, &o.IdleSpin, &o.RoundRobinFetch,
		&o.ModelNetworkDMA, &o.AffinityScheduler, &o.MeasureLatency} {
		c.Bool(p)
	}
	for _, p := range [...]*int{&o.Contexts, &o.Clients, &o.ServerProcesses,
		&o.KeepAliveRequests, &o.AcceptBacklog, &o.IdleTimeoutTicks, &o.SocketTable, &o.MbufPool,
		&o.ProcTable, &o.FDLimit, &o.ThinkTicks, &o.StaggerTicks} {
		checkpoint.I(c, p)
	}
	c.Float(&o.BufferCacheHitRate)
	o.Faults.Sync(c)
	o.Sampling.Sync(c)
}

// Sync syncs the sampling schedule.
func (s *Sampling) Sync(c *checkpoint.Codec) {
	c.Uint(&s.Period)
	c.Uint(&s.DetailWindow)
	c.Uint(&s.Warmup)
}
