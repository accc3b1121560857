package flatmap

import (
	"slices"
	"testing"
)

// entries lists the table's live entries in Range order.
func entries(m *IntMap) [][2]int {
	var out [][2]int
	m.Range(func(k, v int) { out = append(out, [2]int{k, v}) })
	return out
}

// FuzzFlatmap runs random Put/Delete/Get/Reset sequences against a Go-map
// oracle. Every Reset(h) also starts a fresh New(h) twin that receives the
// same later operations: the reset table must stay observably identical to
// it — the same bucket count, Len and Range order — because checkpoint
// restores rebuild their indexes with Reset where they used to call New.
// Each operation is three input bytes: opcode, key, value (or hint).
func FuzzFlatmap(f *testing.F) {
	f.Add([]byte{0, 1, 5, 0, 2, 6, 1, 1, 0, 2, 2, 0, 3, 9, 0, 0, 4, 7})
	f.Add([]byte{0, 10, 1, 0, 11, 2, 0, 12, 3, 3, 40, 0, 0, 13, 4, 1, 13, 0, 0, 14, 5})
	f.Add([]byte{3, 200, 0, 0, 1, 1, 0, 2, 2, 3, 0, 0, 0, 3, 3, 1, 3, 0, 0, 3, 4})
	f.Fuzz(func(t *testing.T, ops []byte) {
		m := New(0)
		oracle := map[int]int{}
		var twin *IntMap
		for step := 0; len(ops) >= 3; step++ {
			op, key, val := ops[0], int(ops[1])-64, int(ops[2])
			ops = ops[3:]
			switch op % 4 {
			case 0:
				m.Put(key, val)
				oracle[key] = val
				if twin != nil {
					twin.Put(key, val)
				}
			case 1:
				_, want := oracle[key]
				if got := m.Delete(key); got != want {
					t.Fatalf("step %d: Delete(%d) = %v, want %v", step, key, got, want)
				}
				delete(oracle, key)
				if twin != nil {
					twin.Delete(key)
				}
			case 2:
				wv, wok := oracle[key]
				if gv, gok := m.Get(key); gok != wok || gv != wv {
					t.Fatalf("step %d: Get(%d) = %d,%v, want %d,%v", step, key, gv, gok, wv, wok)
				}
			case 3:
				// The hint spans shrinking and growing the storage.
				hint := val * int(key+65) % 5000
				m.Reset(hint)
				twin = New(hint)
				clear(oracle)
			}
			if m.Len() != len(oracle) {
				t.Fatalf("step %d: Len = %d, want %d", step, m.Len(), len(oracle))
			}
			if twin != nil {
				if len(m.buckets) != len(twin.buckets) {
					t.Fatalf("step %d: %d buckets after Reset, New has %d", step, len(m.buckets), len(twin.buckets))
				}
				if got, want := entries(m), entries(twin); !slices.Equal(got, want) {
					t.Fatalf("step %d: Range after Reset = %v, New gives %v", step, got, want)
				}
			}
		}
		got := entries(m)
		if len(got) != len(oracle) {
			t.Fatalf("Range visits %d entries, oracle holds %d", len(got), len(oracle))
		}
		for _, kv := range got {
			if oracle[kv[0]] != kv[1] {
				t.Fatalf("Range yields %d=%d, oracle has %d", kv[0], kv[1], oracle[kv[0]])
			}
		}
	})
}
