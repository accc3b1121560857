// Fixture for the hotalloc analyzer: every allocation shape reachable from a
// //detlint:hot root is flagged; amortized-scratch idioms, panic paths, and
// functions the root cannot reach are not.
package hot

import "fmt"

type event struct{ n int }

type engine struct {
	fpQ []uint64
	buf []event
	log string
	cbs []func()
}

//detlint:hot fixture root: the per-cycle step
func (e *engine) step(v uint64) {
	e.enqueue(v)
	e.grow()
	e.box(v)
	e.format()
	e.strings()
	e.closures()
	e.guarded(v)
	e.keyed()
}

// enqueue shows the allowed scratch idioms: append to a field, append through
// a pointer, and append to a local resliced from long-lived storage.
func (e *engine) enqueue(v uint64) {
	e.fpQ = append(e.fpQ, v)
	q := e.fpQ[:0]
	q = append(q, v)
	e.fpQ = q
	appendTo(&e.fpQ, v)
}

func appendTo(p *[]uint64, v uint64) {
	*p = append(*p, v)
}

// grow allocates in every shape the analyzer knows.
func (e *engine) grow() {
	s := make([]int, 4) // want `make allocates on hot path`
	p := new(event)     // want `new allocates on hot path`
	l := []int{1, 2}    // want `slice literal allocates on hot path`
	m := map[int]int{}  // want `map literal allocates on hot path`
	ev := &event{n: 1}  // want `address-taken composite literal escapes to the heap on hot path`
	var fresh []int
	fresh = append(fresh, 1) // want `append grows fresh, which is not amortized scratch, on hot path`
	_, _, _, _, _, _ = s, p, l, m, ev, fresh
}

func sink(v any) { _ = v }

// box shows interface boxing at argument positions and in conversions.
func (e *engine) box(v uint64) {
	sink(v)     // want `argument boxes uint64 into interface parameter on hot path`
	x := any(v) // want `conversion boxes uint64 into interface on hot path`
	_ = x
	var err error
	sink(err) // interface to interface: no boxing
}

// format: fmt always allocates, but panic arguments never run hot.
func (e *engine) format() {
	fmt.Println("x") // want `fmt\.Println call allocates on hot path`
	if impossible() {
		panic(fmt.Sprintf("corrupt state: %d", 7))
	}
}

func impossible() bool { return false }

// strings: concatenation, +=, and string<->[]byte conversions all copy.
func (e *engine) strings() {
	a := "x" + e.log   // want `string concatenation allocates on hot path`
	e.log += "y"       // want `string \+= allocates on hot path`
	b := []byte(e.log) // want `string/byte-slice conversion allocates on hot path`
	_, _ = a, b
}

// closures: a literal passed straight into another suite function stays on
// the stack; a stored literal must be assumed heap.
func (e *engine) closures() {
	e.each(func() {})
	e.cbs = append(e.cbs, func() {}) // want `closure may be heap-allocated on hot path`
}

func (e *engine) each(f func()) { f() }

// guarded shows the suppression path for a deliberate allocation.
func (e *engine) guarded(v uint64) {
	//detlint:ignore hotalloc fixture: amortized warmup table build
	t := make([]int, int(v))
	_ = t
}

// keyed is reachable but clean: arithmetic and element writes in place.
func (e *engine) keyed() {
	for i := range e.buf {
		e.buf[i].n++
	}
}

// cold is not reachable from the root, so its allocations are not flagged.
func cold() []int {
	return make([]int, 128)
}
