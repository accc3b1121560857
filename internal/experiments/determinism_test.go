package experiments

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/report"
)

// TestBitIdenticalReplay is the runtime half of the determinism contract the
// detlint analyzers enforce statically (see ANALYSIS.md): two same-seed
// Apache simulations at Quick scale must produce bit-identical statistics.
// The comparison is field-by-field over the full report.Snapshot so a
// divergence names the exact counter that drifted, not just "snapshots
// differ".
func TestBitIdenticalReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two Quick-scale Apache simulations")
	}
	run := func() report.Snapshot {
		sim := apacheConfig(Quick, 42, core.Options{}).build()
		sim.Run(Quick.Warmup + Quick.Measure)
		return report.Take(sim)
	}
	a, b := run(), run()
	diffValues(t, "Snapshot", reflect.ValueOf(a), reflect.ValueOf(b))
}

// diffValues recursively compares two values of the same type and reports
// every leaf field whose bits differ, with its full path.
func diffValues(t *testing.T, path string, a, b reflect.Value) {
	t.Helper()
	switch a.Kind() {
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			diffValues(t, path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i))
		}
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			diffValues(t, indexPath(path, i), a.Index(i), b.Index(i))
		}
	case reflect.Slice:
		if a.Len() != b.Len() {
			t.Errorf("%s: length %d vs %d", path, a.Len(), b.Len())
			return
		}
		for i := 0; i < a.Len(); i++ {
			diffValues(t, indexPath(path, i), a.Index(i), b.Index(i))
		}
	case reflect.Map:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			t.Errorf("%s: %v != %v", path, a.Interface(), b.Interface())
		}
	default:
		if !reflect.DeepEqual(a.Interface(), b.Interface()) {
			t.Errorf("%s: %v != %v", path, a.Interface(), b.Interface())
		}
	}
}

func indexPath(path string, i int) string {
	return path + "[" + strconv.Itoa(i) + "]"
}
