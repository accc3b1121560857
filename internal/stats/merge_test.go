package stats_test

import (
	"testing"

	"repro/internal/report"
	"repro/internal/stats"
)

// Windowed Hist, Series and Cycles values are differenced and combined by
// report's field walk (report.Delta and report.Merge). The tests below pin
// that walk's laws on each type with real observations: folding per-window
// deltas in window order must reproduce the serial accumulation exactly.
// Observations are integer-valued so the float moment sums in Series are
// exact and the telescoping identity Merge(Delta(a,b), Delta(b,c)) ==
// Delta(a,c) holds bit for bit.

// telescopes returns Merge(Delta(a,b), Delta(b,c)) and Delta(a,c).
func telescopes(a, b, c report.Snapshot) (got, want report.Snapshot) {
	return report.Merge(report.Delta(a, b), report.Delta(b, c)), report.Delta(a, c)
}

func series(s stats.Series) report.Snapshot {
	var snap report.Snapshot
	snap.Sampling.IPC = s
	return snap
}

func TestSeriesMergeInverseOfSub(t *testing.T) {
	var a, b, c stats.Series
	for _, v := range []float64{3, 5, 8} {
		a.Add(v)
	}
	b = a
	for _, v := range []float64{2, 13} {
		b.Add(v)
	}
	c = b
	c.Add(21)

	gotSnap, wantSnap := telescopes(series(a), series(b), series(c))
	got, want := gotSnap.Sampling.IPC, wantSnap.Sampling.IPC
	if got != want {
		t.Errorf("Merge(Delta(a,b), Delta(b,c)) = %+v, want Delta(a,c) = %+v", got, want)
	}
	if got.N != 3 || got.Sum != 36 || got.SumSq != 4+169+441 {
		t.Errorf("merged series moments = %+v", got)
	}
}

func TestSeriesMergeZeroIdentity(t *testing.T) {
	var s stats.Series
	s.Add(7)
	s.Add(11)
	zero := series(stats.Series{})
	if report.Merge(series(s), zero).Sampling.IPC != s || report.Merge(zero, series(s)).Sampling.IPC != s {
		t.Errorf("zero series is not a Merge identity: %+v", s)
	}
}

func TestCyclesMergeInverseOfSub(t *testing.T) {
	fill := func(k uint64) report.Snapshot {
		var snap report.Snapshot
		c := &snap.CycleAt
		for i := range c.ByCat {
			c.ByCat[i] = k * uint64(i+1)
		}
		for i := range c.BySyscall {
			c.BySyscall[i] = k * uint64(i+2)
		}
		for i := range c.ByMode {
			c.ByMode[i] = k * uint64(i+3)
		}
		c.Total = k * 1000
		return snap
	}
	a, b, c := fill(1), fill(4), fill(9)

	got, want := telescopes(a, b, c)
	if got.CycleAt != want.CycleAt {
		t.Errorf("Merge(Delta(a,b), Delta(b,c)) = %+v, want Delta(a,c) = %+v", got.CycleAt, want.CycleAt)
	}
	// The walk and the sampler's Cycles.Sub must agree.
	if d := c.CycleAt.Sub(&a.CycleAt); want.CycleAt != d {
		t.Errorf("Delta(a,c).CycleAt = %+v, Cycles.Sub = %+v", want.CycleAt, d)
	}
}

func TestHistMergeInverseOfSub(t *testing.T) {
	var a, b, c report.Snapshot
	for _, v := range []uint64{1, 1, 2, 300} {
		a.Latency.Observe(v)
	}
	b = a
	for _, v := range []uint64{2, 255, 1000} {
		b.Latency.Observe(v)
	}
	c = b
	c.Latency.Observe(0)

	gotSnap, wantSnap := telescopes(a, b, c)
	got := gotSnap.Latency
	if got != wantSnap.Latency {
		t.Errorf("Merge(Delta(a,b), Delta(b,c)) != Delta(a,c)")
	}
	if got.Count != 4 || got.Over != 1 || got.Buckets[2] != 1 || got.Buckets[255] != 1 || got.Buckets[0] != 1 {
		t.Errorf("merged histogram = Count %d Over %d", got.Count, got.Over)
	}
}

func TestHistSub(t *testing.T) {
	var a report.Snapshot
	a.Latency.Observe(3)
	a.Latency.Observe(7)
	before := a
	a.Latency.Observe(7)
	a.Latency.Observe(stats.HistBuckets * 2)
	d := report.Delta(before, a).Latency
	if d.Count != 2 || d.Buckets[7] != 1 || d.Buckets[3] != 0 || d.Over != 1 {
		t.Fatalf("window delta wrong: %+v", d)
	}
}
