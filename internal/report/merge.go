package report

import (
	"fmt"
	"reflect"
)

// Delta returns the window b - a.
func Delta(a, b Snapshot) Snapshot { return fold(a, b, true) }

// Merge combines two window deltas a + b, the additive inverse of Delta:
// Merge(Delta(x, y), Delta(y, z)) accumulates the same counters Delta(x, z)
// would. Counters add; gauges — which a Delta carries as the end snapshot's
// instantaneous values — take the later window's value, so b must be the
// later window. Folding per-window deltas left-to-right in window order makes
// the result independent of which worker or process produced each window.
func Merge(a, b Snapshot) Snapshot { return fold(a, b, false) }

// fold is the one counter algebra behind Delta and Merge. It walks every
// leaf of the snapshot — nested structs and arrays included — so a counter
// declared anywhere in Snapshot is windowed without being listed here:
// uint64 and float64 leaves become late − early (sub) or early + late, in
// that operand order so float moment sums stay bit-identical to serial
// accumulation; fields tagged report:"gauge" take the later value; bools
// (SampleStats.Enabled) take the later value on a Delta and OR on a Merge.
// A leaf of any other kind cannot be folded and panics, which fails
// TestMergeMirrorsDelta the moment such a field is added.
func fold(early, late Snapshot, sub bool) Snapshot {
	var out Snapshot
	foldValue(reflect.ValueOf(&out).Elem(), reflect.ValueOf(&early).Elem(), reflect.ValueOf(&late).Elem(), sub)
	return out
}

// foldValue folds one value into out and reports whether its kind can be
// folded; the enclosing struct names the field that cannot.
func foldValue(out, early, late reflect.Value, sub bool) bool {
	switch out.Kind() {
	case reflect.Struct:
		t := out.Type()
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			switch {
			case f.Tag.Get("report") == "gauge":
				out.Field(i).Set(late.Field(i))
			case !foldValue(out.Field(i), early.Field(i), late.Field(i), sub):
				panic(fmt.Sprintf("report: cannot fold %s.%s (%s); make it a uint64/float64 counter or tag it report:\"gauge\"", t.Name(), f.Name, f.Type))
			}
		}
	case reflect.Array:
		for i := 0; i < out.Len(); i++ {
			if !foldValue(out.Index(i), early.Index(i), late.Index(i), sub) {
				return false
			}
		}
	case reflect.Uint64:
		if sub {
			out.SetUint(late.Uint() - early.Uint())
		} else {
			out.SetUint(early.Uint() + late.Uint())
		}
	case reflect.Float64:
		if sub {
			out.SetFloat(late.Float() - early.Float())
		} else {
			out.SetFloat(early.Float() + late.Float())
		}
	case reflect.Bool:
		out.SetBool(late.Bool() || !sub && early.Bool())
	default:
		return false
	}
	return true
}
