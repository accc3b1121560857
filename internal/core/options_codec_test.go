package core_test

import (
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
)

// leafFields returns the paths of every exported scalar field of t,
// descending into struct fields (faults.Config, Sampling).
func leafFields(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		path := append(append([]int(nil), prefix...), i)
		if f.Type.Kind() == reflect.Struct {
			out = append(out, leafFields(f.Type, path)...)
			continue
		}
		out = append(out, path)
	}
	return out
}

// setNonDefault gives the scalar field v a nonzero value derived from n.
func setNonDefault(tb testing.TB, v reflect.Value, n int) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(3 + n))
	case reflect.Uint8, reflect.Uint64:
		v.SetUint(uint64(1 + n%200))
	case reflect.Float64:
		v.SetFloat(0.125 + float64(n))
	default:
		tb.Fatalf("Options field of kind %s has no test value; extend setNonDefault", v.Kind())
	}
}

// TestOptionsCodecCoversEveryField sets each exported Options field —
// faults.Config and Sampling included — to a non-default value, one at a
// time and all at once. The meta section must round-trip it, and the
// library fingerprint must change with it, so a field the codec forgot
// cannot silently let two configurations share a checkpoint library.
func TestOptionsCodecCoversEveryField(t *testing.T) {
	roundTrip := func(o core.Options) core.Options {
		t.Helper()
		in := core.Meta{Workload: "apache", Opts: o, Cycle: 42}
		var e checkpoint.Enc
		in.Save(&e)
		var out core.Meta
		d := checkpoint.NewDec("meta", e.Bytes())
		out.Load(&d)
		if err := d.Finish(); err != nil {
			t.Fatalf("decoding meta: %v", err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("meta round trip:\n got %+v\nwant %+v", out, in)
		}
		return out.Opts
	}
	base := core.Fingerprint("apache", core.Options{}, 1000)
	var all core.Options
	fields := leafFields(reflect.TypeOf(all), nil)
	if len(fields) < 40 {
		t.Fatalf("found %d Options fields; the walk missed the nested configs", len(fields))
	}
	for n, path := range fields {
		var one core.Options
		setNonDefault(t, reflect.ValueOf(&one).Elem().FieldByIndex(path), n)
		setNonDefault(t, reflect.ValueOf(&all).Elem().FieldByIndex(path), n)
		name := reflect.TypeOf(one).FieldByIndex(path).Name
		roundTrip(one)
		if core.Fingerprint("apache", one, 1000) == base {
			t.Errorf("setting Options field %s does not change the fingerprint", name)
		}
	}
	roundTrip(all)
	if core.Fingerprint("apache", all, 1000) == base {
		t.Error("a fully non-default Options has the default fingerprint")
	}
}
