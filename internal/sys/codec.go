package sys

import "repro/internal/checkpoint"

// Sync syncs the request. A syscall number or resource outside the
// kernel's dispatch and accounting tables is damage.
func (r *Request) Sync(c *checkpoint.Codec) {
	checkpoint.Index(c, &r.Num, int(NumSyscalls))
	checkpoint.I(c, &r.Bytes)
	checkpoint.Index(c, &r.Resource, int(ResMemory)+1)
	checkpoint.I(c, &r.FD)
	c.Uint(&r.Addr)
	c.Bool(&r.Blocking)
}
