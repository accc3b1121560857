// Fixture for snapshotcomplete exemptions: field-level and type-level
// //detlint:ignore directives suppress coverage requirements.
package exempt

// Codec stands in for the checkpoint section codec.
type Codec struct {
	loading bool
	buf     []int
}

func (c *Codec) Loading() bool { return c.loading }

type Tagged struct {
	data  []int
	name  string //detlint:ignore snapshotcomplete label fixed at construction
	index []int  //detlint:ignore snapshotcomplete derived lookup index rebuilt from data on restore
}

func (t *Tagged) Sync(c *Codec) {
	c.buf = append(c.buf, t.data...)
	if c.Loading() {
		t.index = append(t.index[:0], t.data...)
	}
}

//detlint:ignore snapshotcomplete scratch type whose state is rebuilt each run
type Whole struct {
	x int
}

func (w *Whole) Sync(c *Codec) {}
