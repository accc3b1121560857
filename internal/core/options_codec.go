package core

import "repro/internal/checkpoint"

// Save writes the options: the checkpoint's meta section carries them, and
// Fingerprint hashes these bytes. Every field must be written, or two
// configurations that differ in it would share a checkpoint library.
func (o *Options) Save(e *checkpoint.Enc) {
	e.Uint(uint64(o.Processor))
	e.Uint(o.Seed)
	e.Uint(o.CyclesPer10ms)
	e.Uint(o.MemFrameLimit)
	for _, b := range [...]bool{o.AppOnly, o.OmitPrivileged, o.IdleSpin, o.RoundRobinFetch,
		o.ModelNetworkDMA, o.AffinityScheduler, o.MeasureLatency} {
		e.Bool(b)
	}
	for _, v := range [...]int{o.Contexts, o.Clients, o.ServerProcesses,
		o.KeepAliveRequests, o.AcceptBacklog, o.IdleTimeoutTicks, o.SocketTable, o.MbufPool,
		o.ProcTable, o.FDLimit, o.ThinkTicks, o.StaggerTicks} {
		e.Int(int64(v))
	}
	e.Float(o.BufferCacheHitRate)
	o.Faults.Save(e)
	o.Sampling.Save(e)
}

// Load reads options written by Save.
func (o *Options) Load(d *checkpoint.Dec) {
	o.Processor = ProcessorKind(d.Uint())
	o.Seed = d.Uint()
	o.CyclesPer10ms = d.Uint()
	o.MemFrameLimit = d.Uint()
	for _, p := range [...]*bool{&o.AppOnly, &o.OmitPrivileged, &o.IdleSpin, &o.RoundRobinFetch,
		&o.ModelNetworkDMA, &o.AffinityScheduler, &o.MeasureLatency} {
		*p = d.Bool()
	}
	for _, p := range [...]*int{&o.Contexts, &o.Clients, &o.ServerProcesses,
		&o.KeepAliveRequests, &o.AcceptBacklog, &o.IdleTimeoutTicks, &o.SocketTable, &o.MbufPool,
		&o.ProcTable, &o.FDLimit, &o.ThinkTicks, &o.StaggerTicks} {
		*p = int(d.Int())
	}
	o.BufferCacheHitRate = d.Float()
	o.Faults.Load(d)
	o.Sampling.Load(d)
}

// Save writes the sampling schedule.
func (s *Sampling) Save(e *checkpoint.Enc) {
	e.Uint(s.Period)
	e.Uint(s.DetailWindow)
	e.Uint(s.Warmup)
}

// Load reads a sampling schedule written by Save.
func (s *Sampling) Load(d *checkpoint.Dec) {
	s.Period = d.Uint()
	s.DetailWindow = d.Uint()
	s.Warmup = d.Uint()
}
