// Crash-consistent checkpoint/restore for the whole simulator. A checkpoint
// is a versioned checkpoint.Image with one section per layer, each written
// by the layer's Save and read back by its Load:
//
//	meta    workload name, Options, cycle
//	engine  pipeline.Engine (ROBs, event heap, caches, TLBs, predictor)
//	kernel  kernel.Kernel (threads, feeds, generator stacks, sockets, mem)
//	net     netsim.Network (client fleet; apache workloads only)
//	server  apache.Server (pool cursor; apache workloads only)
//	faults  faults.Injector (injector RNGs and counters; when enabled)
//
// The golden guarantee: save at cycle N, restore into a fresh process, run M
// more cycles — the result is bit-identical to running N+M straight through.
// Restore rebuilds the static machine from the saved Options (the structure
// is a deterministic function of them) and then loads every piece of
// mutable state straight into it.
//
// WriteCheckpoint runs the invariant auditor first and refuses to persist an
// inconsistent state, so a checkpoint on disk is always a safe resume point.
package core

import (
	"fmt"

	"repro/internal/audit"
	"repro/internal/checkpoint"
	"repro/internal/kernel"
	"repro/internal/workload"
	"repro/internal/workload/specint"
)

// Meta is the checkpoint's identity section: everything needed to rebuild
// the static machine before the state sections are applied.
type Meta struct {
	// Workload names the workload ("apache", "specint").
	Workload string
	// Opts is the full configuration of the checkpointed run.
	Opts Options
	// Cycle is the simulation cycle at which the checkpoint was taken.
	Cycle uint64
}

// Audit runs the full invariant-check registry against the live simulator,
// returning nil or an *audit.Error listing every violation.
func (s *Simulator) Audit() error {
	return audit.Run(audit.Target{Engine: s.Engine, Kernel: s.Kernel})
}

// Save writes the meta section.
func (m *Meta) Save(e *checkpoint.Enc) {
	e.String(m.Workload)
	m.Opts.Save(e)
	e.Uint(m.Cycle)
}

// Load reads a meta section written by Save.
func (m *Meta) Load(d *checkpoint.Dec) {
	m.Workload = d.String()
	m.Opts.Load(d)
	m.Cycle = d.Uint()
}

// Checkpoint captures the simulator's complete state as an image. The
// error is always nil; it stays in the signature for callers that treat a
// checkpoint as fallible I/O.
func (s *Simulator) Checkpoint() (*checkpoint.Image, error) {
	img := checkpoint.NewImage()
	meta := Meta{Workload: s.Workload, Opts: s.Opts, Cycle: s.Now()}
	img.Put("meta", meta.Save)
	img.Put("engine", s.Engine.Save)
	img.Put("kernel", s.Kernel.Save)
	if s.Net != nil {
		img.Put("net", s.Net.Save)
	}
	if s.Server != nil {
		img.Put("server", s.Server.Save)
	}
	if s.Faults != nil {
		img.Put("faults", s.Faults.Save)
	}
	return img, nil
}

// WriteCheckpoint audits the simulator and, only if the state is consistent,
// writes a checkpoint atomically to path. An audit failure is returned as an
// *audit.Error and nothing is written.
func (s *Simulator) WriteCheckpoint(path string) error {
	if err := s.Audit(); err != nil {
		return fmt.Errorf("core: refusing to checkpoint inconsistent state: %w", err)
	}
	img, err := s.Checkpoint()
	if err != nil {
		return err
	}
	return checkpoint.WriteFile(path, img)
}

// progFactory builds the workload-specific program reconstructor used when
// restoring thread state: given a program name and slot, it returns a fresh
// ScriptProgram whose walker and state the kernel then overwrites. It
// refuses slots the run cannot have handed out — an Apache slot past the
// pool's cursor, a SPECInt benchmark off its suite position — so a damaged
// image cannot make it build programs without bound.
func (s *Simulator) progFactory() kernel.ProgFactory {
	return func(name string, slot int) *workload.ScriptProgram {
		key := progKey{name: name, slot: slot}
		if p, ok := s.progCache[key]; ok {
			return p
		}
		var p *workload.ScriptProgram
		if s.Server != nil && name == "apache" {
			if slot < 0 || slot > s.Server.NextSlot() {
				return nil
			}
			p = s.Server.ProcessFor(slot)
		} else {
			for i, spec := range specint.Suite() {
				if spec.Name == name && slot == i+1 {
					p = specint.New(spec, slot, s.Opts.Seed+101)
					break
				}
			}
		}
		if p != nil {
			if s.progCache == nil {
				s.progCache = map[progKey]*workload.ScriptProgram{}
			}
			s.progCache[key] = p
		}
		return p
	}
}

// RestoreInto overwrites this simulator's state from a checkpoint image,
// loading each section straight into the live layer. The image must come
// from a simulator with the same workload and options (the static
// structure must match; Restore handles the general case). A failed
// restore leaves the simulator partly overwritten: discard it, or restore
// a good image into it.
func (s *Simulator) RestoreInto(img *checkpoint.Image) error {
	var meta Meta
	if err := img.Get("meta", meta.Load); err != nil {
		return err
	}
	if meta.Workload != s.Workload {
		return &checkpoint.FormatError{Reason: fmt.Sprintf("checkpoint is for workload %q, simulator runs %q", meta.Workload, s.Workload)}
	}
	if err := img.Get("engine", s.Engine.Load); err != nil {
		return err
	}
	// The server's slot cursor bounds the program rebuilds the kernel
	// section asks for, so it loads first.
	if s.Server != nil {
		if err := img.Get("server", s.Server.Load); err != nil {
			return err
		}
	}
	factory := s.progFactory()
	err := img.Get("kernel", func(d *checkpoint.Dec) { s.Programs = s.Kernel.Load(d, factory) })
	if err != nil {
		return err
	}
	if s.Net != nil {
		if err := img.Get("net", s.Net.Load); err != nil {
			return err
		}
	}
	if s.Faults != nil {
		if err := img.Get("faults", s.Faults.Load); err != nil {
			return err
		}
	}
	return nil
}

// Restore builds a fresh simulator from a checkpoint image: the machine is
// reassembled from the saved options, then every layer's state is loaded
// from the image.
func Restore(img *checkpoint.Image) (*Simulator, error) {
	var meta Meta
	if err := img.Get("meta", meta.Load); err != nil {
		return nil, err
	}
	sim, err := New(meta.Workload, meta.Opts)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding from checkpoint: %w", err)
	}
	if err := sim.RestoreInto(img); err != nil {
		return nil, err
	}
	return sim, nil
}

// RestoreFile reads, verifies, and restores a checkpoint file.
func RestoreFile(path string) (*Simulator, error) {
	img, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Restore(img)
}
