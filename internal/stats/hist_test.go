package stats

import "testing"

func TestHistQuantiles(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Quantile(0.50); got != 50 {
		t.Fatalf("p50 = %d, want 50", got)
	}
	if got := h.Quantile(0.99); got != 99 {
		t.Fatalf("p99 = %d, want 99", got)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Fatalf("p100 = %d, want 100", got)
	}
	if h.Count != 100 || h.Sum != 5050 {
		t.Fatalf("count/sum = %d/%d", h.Count, h.Sum)
	}
	if h.Mean() != 50.5 {
		t.Fatalf("mean = %v", h.Mean())
	}
}

func TestHistEmptyAndOverflow(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	h.Observe(HistBuckets + 10)
	if h.Over != 1 || h.Count != 1 {
		t.Fatalf("overflow not counted: %+v", h)
	}
	if got := h.Quantile(0.5); got != HistBuckets {
		t.Fatalf("overflow quantile = %d, want saturated %d", got, HistBuckets)
	}
}
