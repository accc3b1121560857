package sys

import "repro/internal/checkpoint"

// Save writes the request to a checkpoint section.
func (r *Request) Save(e *checkpoint.Enc) {
	e.Uint(uint64(r.Num))
	e.Int(int64(r.Bytes))
	e.Uint(uint64(r.Resource))
	e.Int(int64(r.FD))
	e.Uint(r.Addr)
	e.Bool(r.Blocking)
}

// Load reads a request written by Save. A syscall number or resource
// outside the kernel's dispatch and accounting tables is damage.
func (r *Request) Load(d *checkpoint.Dec) {
	r.Num = uint16(d.Index(int(NumSyscalls)))
	r.Bytes = int(d.Int())
	r.Resource = Resource(d.Index(int(ResMemory) + 1))
	r.FD = int(d.Int())
	r.Addr = d.Uint()
	r.Blocking = d.Bool()
}
