// Deliberate damage for the invariant auditor's tests: a way to put the
// kernel into a state its own code never produces, so a test can check
// that the auditor notices. The simulation never calls it.
package kernel

// SetSocketOwner rewrites socket id's owner TID without the bookkeeping a
// real ownership change does, and reports whether the socket exists. With
// a TID no thread has, it leaves the orphaned socket a worker crash whose
// descriptors were never reaped would.
func (k *Kernel) SetSocketOwner(id int, tid uint32) bool {
	s := k.net.sock(id)
	if s == nil {
		return false
	}
	s.owner = tid
	return true
}
