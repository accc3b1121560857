package isa

import "repro/internal/checkpoint"

// Sync syncs the instruction. A class or mode outside the ISA is damage:
// both index the simulator's statistics tables.
func (in *Inst) Sync(c *checkpoint.Codec) {
	c.Uint(&in.PC)
	c.Uint(&in.Addr)
	c.Uint(&in.Target)
	checkpoint.U(c, &in.Dep1)
	checkpoint.U(c, &in.Dep2)
	checkpoint.U(c, &in.Syscall)
	checkpoint.Index(c, &in.Class, NumClasses)
	checkpoint.Index(c, &in.Mode, NumModes)
	c.Flags(&in.Taken, &in.Physical)
	checkpoint.U(c, &in.Size)
}
