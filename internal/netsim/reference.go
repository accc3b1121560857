// Reference full-scan driver hook.
//
// The event-driven driver (timer wheel + due list) is an optimization with
// a strong claim attached: its frame stream and RNG stream are
// bit-identical to visiting every client every tick. To keep that claim
// testable forever, the pre-wheel full-scan driver survives as a mode of
// the same code — stepClient is the old loop body, and refScan makes Tick
// run it over the whole fleet instead of the due list. Equivalence tests
// run both drivers over the same seeds and compare outputs byte for byte.
package netsim

// SetReferenceScan switches between the event-driven driver (false, the
// default) and the reference full-scan driver (true). The two produce
// bit-identical output; the reference driver costs O(fleet) per tick and
// exists for equivalence tests and bisection. Safe to flip mid-run: both
// modes advance the wheel and keep it armed.
func (n *Network) SetReferenceScan(on bool) { n.refScan = on }
