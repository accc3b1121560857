package report

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// fillSnapshot sets every numeric leaf of a Snapshot to a distinct
// deterministic value scaled by k, walking the struct with reflection so a
// counter added to Snapshot (or any nested struct) in the future is covered
// automatically. Values are integers — exact in float64 — so the telescoping
// identity Merge(Delta(a,b), Delta(b,c)) == Delta(a,c) must hold bit for
// bit, not just approximately. Scaling by k keeps every leaf monotone in k,
// so deltas between fills never underflow the unsigned counters.
func fillSnapshot(k uint64) Snapshot {
	var s Snapshot
	leaf := uint64(0)
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Uint64, reflect.Uint32, reflect.Uint16, reflect.Uint8, reflect.Uint:
			leaf++
			v.SetUint(k * leaf)
		case reflect.Int64, reflect.Int32, reflect.Int16, reflect.Int8, reflect.Int:
			leaf++
			v.SetInt(int64(k * leaf))
		case reflect.Float64, reflect.Float32:
			leaf++
			v.SetFloat(float64(k * leaf))
		case reflect.Bool:
			v.SetBool(true)
		default:
			panic("fillSnapshot: unhandled kind " + v.Kind().String() +
				" — extend the filler and check Merge/Delta handle the new field")
		}
	}
	walk(reflect.ValueOf(&s).Elem())
	return s
}

// TestMergeMirrorsDelta pins the contract the windowed pipeline depends on:
// report.Merge is the additive inverse of report.Delta, so folding
// per-window deltas in window order reconstructs the whole-run delta
// exactly. Because the fill covers every field reflectively, a counter added
// to Snapshot but forgotten in either Merge or Delta fails this test.
func TestMergeMirrorsDelta(t *testing.T) {
	a, b, c := fillSnapshot(1), fillSnapshot(10), fillSnapshot(100)

	got := Merge(Delta(a, b), Delta(b, c))
	want := Delta(a, c)
	if !reflect.DeepEqual(got, want) {
		tg, tw := reflect.ValueOf(got), reflect.ValueOf(want)
		for i := 0; i < tg.NumField(); i++ {
			if !reflect.DeepEqual(tg.Field(i).Interface(), tw.Field(i).Interface()) {
				t.Errorf("field %s: Merge(Delta(a,b), Delta(b,c)) != Delta(a,c)",
					tg.Type().Field(i).Name)
			}
		}
	}
}

// TestMergeZeroIdentity checks a zero delta is a Merge identity for counters
// (gauges follow the later operand by design, so only the counter fields are
// compared via a round trip through Delta of identical snapshots).
func TestMergeZeroIdentity(t *testing.T) {
	a, b := fillSnapshot(1), fillSnapshot(7)
	d := Delta(a, b)
	zero := Delta(b, b) // zero counters, gauges = b's instantaneous values

	got := Merge(d, zero)
	if !reflect.DeepEqual(got, d) {
		t.Errorf("Merge(d, Delta(b,b)) != d")
	}
}

// TestDeltaCarriesStallCounters pins the per-context-cycle unfetchability
// counters of pipeline.Metrics through a real window. They are nested in
// Snapshot.Metrics, where a hand-written field list once dropped them and
// every window reported zero.
func TestDeltaCarriesStallCounters(t *testing.T) {
	sim := core.NewApache(core.Options{Seed: 1, CyclesPer10ms: 80_000})
	sim.Run(150_000)
	a := Take(sim)
	sim.Run(150_000)
	b := Take(sim)
	d := Delta(a, b)
	for _, c := range []struct {
		name          string
		got, from, to uint64
	}{
		{"StallRedirect", d.Metrics.StallRedirect, a.Metrics.StallRedirect, b.Metrics.StallRedirect},
		{"StallIMiss", d.Metrics.StallIMiss, a.Metrics.StallIMiss, b.Metrics.StallIMiss},
		{"StallROBFull", d.Metrics.StallROBFull, a.Metrics.StallROBFull, b.Metrics.StallROBFull},
		{"StallFeed", d.Metrics.StallFeed, a.Metrics.StallFeed, b.Metrics.StallFeed},
	} {
		if c.got != c.to-c.from {
			t.Errorf("Delta(a, b).Metrics.%s = %d, want %d - %d", c.name, c.got, c.to, c.from)
		}
		if c.got == 0 {
			t.Errorf("Delta(a, b).Metrics.%s = 0 over a 150k-cycle Apache window", c.name)
		}
	}
}
