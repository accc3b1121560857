// Fixture for snapshotcomplete: passing the whole receiver to an encoder
// makes field-level accounting impossible, so the type counts as covered.
package gob

import (
	"bytes"
	"encoding/gob"
)

type Blob struct {
	a, b, c int
}

func (t *Blob) Sync(buf *bytes.Buffer) {
	if err := gob.NewEncoder(buf).Encode(t); err != nil {
		panic(err)
	}
}
