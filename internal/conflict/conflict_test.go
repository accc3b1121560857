package conflict

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/checkpoint"
)

func TestClassifyCompulsoryOnce(t *testing.T) {
	tr := NewTracker()
	a := Agent{TID: 1}
	if c := tr.Classify(100, a); c != Compulsory {
		t.Fatalf("first miss = %v, want compulsory", c)
	}
	// Classify does not implicitly mark seen; the structure records the
	// eviction explicitly. After an eviction the miss is a conflict.
	tr.Evicted(100, Agent{TID: 1})
	if c := tr.Classify(100, a); c == Compulsory {
		t.Fatal("miss after eviction still compulsory")
	}
}

func TestClassifyCauses(t *testing.T) {
	tr := NewTracker()
	user1 := Agent{TID: 1, Priv: false}
	user2 := Agent{TID: 2, Priv: false}
	kern1 := Agent{TID: 1, Priv: true}
	kern3 := Agent{TID: 3, Priv: true}

	tr.Evicted(1, user1)
	if c := tr.Classify(1, user1); c != Intrathread {
		t.Fatalf("same agent = %v, want intrathread", c)
	}
	if c := tr.Classify(1, user2); c != Interthread {
		t.Fatalf("other user = %v, want interthread", c)
	}
	if c := tr.Classify(1, kern1); c != UserKernel {
		t.Fatalf("kernel after user eviction = %v, want user-kernel", c)
	}

	tr.Evicted(2, kern3)
	if c := tr.Classify(2, kern3); c != Intrathread {
		t.Fatalf("kernel same thread = %v, want intrathread", c)
	}
	if c := tr.Classify(2, kern1); c != Interthread {
		t.Fatalf("kernel other thread = %v, want interthread", c)
	}
	if c := tr.Classify(2, user1); c != UserKernel {
		t.Fatalf("user after kernel eviction = %v, want user-kernel", c)
	}

	tr.Invalidated(3)
	if c := tr.Classify(3, user1); c != Invalidation {
		t.Fatalf("after invalidation = %v, want invalidation", c)
	}
}

func TestFirstSeenDoesNotOverwrite(t *testing.T) {
	tr := NewTracker()
	tr.Evicted(9, Agent{TID: 5, Priv: true})
	tr.FirstSeen(9, Agent{TID: 6})
	if c := tr.Classify(9, Agent{TID: 7}); c != UserKernel {
		t.Fatalf("FirstSeen overwrote eviction record: %v", c)
	}
	tr.FirstSeen(10, Agent{TID: 6})
	if !tr.Seen(10) {
		t.Fatal("FirstSeen did not mark key seen")
	}
}

func TestMatrixPercentagesSumTo100(t *testing.T) {
	var m Matrix
	agents := []Agent{{TID: 1}, {TID: 2, Priv: true}, {TID: 3}}
	causes := []Cause{Compulsory, Intrathread, Interthread, UserKernel, Invalidation}
	for i := 0; i < 1000; i++ {
		m.Add(agents[i%len(agents)], causes[i%len(causes)])
	}
	var sum float64
	for _, priv := range []bool{false, true} {
		for c := 0; c < NumCauses; c++ {
			sum += m.Percent(priv, Cause(c))
		}
	}
	if sum < 99.99 || sum > 100.01 {
		t.Fatalf("percentages sum to %.4f", sum)
	}
	if m.Total() != 1000 {
		t.Fatalf("total = %d", m.Total())
	}
}

func TestMatrixEmptyPercent(t *testing.T) {
	var m Matrix
	if m.Percent(false, Intrathread) != 0 {
		t.Fatal("empty matrix percent should be 0")
	}
}

func TestSharing(t *testing.T) {
	var s Sharing
	s.Add(Agent{TID: 1}, Agent{TID: 2, Priv: true})             // user saved by kernel
	s.Add(Agent{TID: 3, Priv: true}, Agent{TID: 4, Priv: true}) // kernel saved by kernel
	if s.Avoided[0][1] != 1 || s.Avoided[1][1] != 1 || s.Total() != 2 {
		t.Fatalf("sharing counts wrong: %+v", s)
	}
}

// Property: classification is a total function consistent with the recorded
// evictor.
func TestClassifyConsistency(t *testing.T) {
	tr := NewTracker()
	f := func(key uint64, evTID, accTID uint32, evPriv, accPriv bool) bool {
		ev := Agent{TID: evTID, Priv: evPriv}
		acc := Agent{TID: accTID, Priv: accPriv}
		tr.Evicted(key, ev)
		c := tr.Classify(key, acc)
		switch {
		case evPriv != accPriv:
			return c == UserKernel
		case evTID == accTID:
			return c == Intrathread
		default:
			return c == Interthread
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCauseString(t *testing.T) {
	if Compulsory.String() != "compulsory" || Invalidation.String() != "invalidation" {
		t.Fatal("cause names wrong")
	}
	if Cause(77).String() == "" {
		t.Fatal("unknown cause should stringify")
	}
}

// bigSnap returns a tracker section of n line-address keys with mixed
// evictors, the shape of a library window's cache trackers.
func bigSnap(n int) []byte {
	tr := NewTracker()
	for i := 0; i < n; i++ {
		tr.Evicted(uint64(i)*3<<6, Agent{TID: uint32(i % 7), Priv: i%3 == 0})
	}
	return save(tr)
}

// save returns the tracker's checkpoint section.
func save(tr *Tracker) []byte {
	var e checkpoint.Enc
	tr.Save(&e)
	return e.Bytes()
}

// load replaces the tracker's contents with section b.
func load(tr *Tracker, b []byte) error {
	d := checkpoint.NewDec("tracker", b)
	tr.Load(&d)
	return d.Finish()
}

// TestTrackerRestoreZeroAlloc pins the restore path's allocation budget:
// once the base and overlay have grown to a workload's size, loading a
// same-size section and replaying a burst of misses allocates nothing.
func TestTrackerRestoreZeroAlloc(t *testing.T) {
	snap := bigSnap(20_000)
	tr := NewTracker()
	burst := func() {
		d := checkpoint.NewDec("tracker", snap)
		tr.Load(&d)
		for i := uint64(0); i < 5_000; i++ {
			a := Agent{TID: uint32(i % 5), Priv: i%4 == 0}
			tr.Classify(i<<6, a)
			tr.Evicted(i<<6+1, a)
			tr.FirstSeen(i<<6+2, a)
		}
	}
	burst()
	if n := testing.AllocsPerRun(20, burst); n != 0 {
		t.Fatalf("Load + miss burst = %v allocs/run, want 0", n)
	}
}

// TestTrackerOverlayGenerationWrap restores more times than the overlay's
// 16-bit liveness stamp can count: an entry written in one generation must
// not come back to life when the stamp wraps around to it.
func TestTrackerOverlayGenerationWrap(t *testing.T) {
	const stale, other = 1 << 6, 2 << 6
	tr := NewTracker()
	empty := save(tr)
	tr.Evicted(stale, Agent{TID: 1})
	for i := 0; i < 1<<16+3; i++ {
		if err := load(tr, empty); err != nil {
			t.Fatal(err)
		}
		tr.Evicted(other, Agent{TID: 2})
		if tr.Seen(stale) {
			t.Fatalf("restore %d: key %#x, written before the first restore, is live again", i, stale)
		}
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after the last restore and one eviction, want 1", tr.Len())
	}
}

// TestTrackerRestoreRejectsMismatchedArrays loads sections whose TID or
// flag column is shorter than the key column: each must fail with a
// *checkpoint.FormatError and leave the tracker empty, never panic.
func TestTrackerRestoreRejectsMismatchedArrays(t *testing.T) {
	section := func(keys []uint64, tids []uint32, flags []uint8) []byte {
		var e checkpoint.Enc
		e.Uint(uint64(len(keys)))
		prev := uint64(0)
		for _, k := range keys {
			e.Uint(k - prev)
			prev = k
		}
		checkpoint.PutUints(&e, tids)
		checkpoint.PutUints(&e, flags)
		return e.Bytes()
	}
	for name, b := range map[string][]byte{
		"short TIDs":  section([]uint64{1, 2}, []uint32{0}, []uint8{0, 0}),
		"short Flags": section([]uint64{1}, []uint32{0}, nil),
	} {
		t.Run(name, func(t *testing.T) {
			tr := NewTracker()
			err := load(tr, b)
			var ferr *checkpoint.FormatError
			if !errors.As(err, &ferr) {
				t.Fatalf("Load = %v, want a *checkpoint.FormatError", err)
			}
			if tr.Len() != 0 {
				t.Fatalf("failed Load left %d entries", tr.Len())
			}
		})
	}
}

// BenchmarkTrackerRestore loads a section the size of the largest library
// window's trackers combined (about 360k keys) and reports the cost per
// key.
func BenchmarkTrackerRestore(b *testing.B) {
	const keys = 360_000
	snap := bigSnap(keys)
	tr := NewTracker()
	if err := load(tr, snap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := checkpoint.NewDec("tracker", snap)
		tr.Load(&d)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/keys, "ns/key")
}
