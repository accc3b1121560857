package isa

import "repro/internal/checkpoint"

// Flag bits of an instruction in a checkpoint section.
const (
	instTaken = 1 << iota
	instPhysical
)

// Save writes the instruction to a checkpoint section.
func (in *Inst) Save(e *checkpoint.Enc) {
	e.Uint(in.PC)
	e.Uint(in.Addr)
	e.Uint(in.Target)
	e.Uint(uint64(in.Dep1))
	e.Uint(uint64(in.Dep2))
	e.Uint(uint64(in.Syscall))
	e.Uint(uint64(in.Class))
	e.Uint(uint64(in.Mode))
	e.Uint(checkpoint.Flags(in.Taken, in.Physical))
	e.Uint(uint64(in.Size))
}

// Load reads an instruction written by Save. A class or mode outside the
// ISA is damage: both index the simulator's statistics tables.
func (in *Inst) Load(d *checkpoint.Dec) {
	in.PC = d.Uint()
	in.Addr = d.Uint()
	in.Target = d.Uint()
	in.Dep1 = uint16(d.Uint())
	in.Dep2 = uint16(d.Uint())
	in.Syscall = uint16(d.Uint())
	in.Class = Class(d.Index(NumClasses))
	in.Mode = Mode(d.Index(NumModes))
	flags := d.Uint()
	in.Taken = flags&instTaken != 0
	in.Physical = flags&instPhysical != 0
	in.Size = uint8(d.Uint())
}
