// Fixture for snapshotcomplete exemptions: field-level and type-level
// //detlint:ignore directives suppress coverage requirements.
package exempt

// Enc and Dec stand in for the checkpoint section codec.
type Enc struct{ buf []int }

type Dec struct{ buf []int }

type Tagged struct {
	data []int
	name string //detlint:ignore snapshotcomplete label fixed at construction
}

func (t *Tagged) Save(e *Enc) {
	e.buf = append(e.buf, t.data...)
}

func (t *Tagged) Load(d *Dec) {
	t.data = append(t.data[:0], d.buf...)
}

//detlint:ignore snapshotcomplete scratch type whose state is rebuilt each run
type Whole struct {
	x int
}

func (w *Whole) Save(e *Enc) {}

func (w *Whole) Load(d *Dec) {}
