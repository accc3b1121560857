package pipeline

import (
	"container/heap"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/sys"
)

// lcg is a tiny deterministic generator for test inputs (tests must not use
// the global math/rand; see the walltime analyzer in ANALYSIS.md).
type lcg uint64

func (g *lcg) next(mod uint64) uint64 {
	*g = *g*6364136223846793005 + 1442695040888963407
	return uint64(*g>>33) % mod
}

// ---------------------------------------------------------------- event heap

// refHeap is a container/heap reference implementation identical to the one
// the engine used before the typed eventHeap replaced it. The checkpoint
// format serializes the raw heap array, so the typed heap must reproduce the
// exact array layout container/heap would have produced — not just pop order.
type refHeap []event

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// TestEventHeapMatchesContainerHeap drives the typed heap and the
// container/heap reference through the same randomized push/pop sequence
// (with many equal-priority ties) and requires the raw backing arrays to stay
// bit-identical after every operation.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	var a eventHeap
	var b refHeap
	g := lcg(12345)
	for op := 0; op < 50000; op++ {
		if len(a) == 0 || g.next(3) != 0 {
			ev := event{at: g.next(64), ctx: int(g.next(8)), seq: g.next(1000), id: g.next(1 << 30)}
			a.push(ev)
			heap.Push(&b, ev)
		} else {
			x := a.pop()
			y := heap.Pop(&b).(event)
			if x != y {
				t.Fatalf("op %d: pop mismatch: typed %+v vs container/heap %+v", op, x, y)
			}
		}
		if len(a) != len(b) {
			t.Fatalf("op %d: length mismatch %d vs %d", op, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("op %d: raw array layout diverged at index %d: %+v vs %+v",
					op, i, a[i], b[i])
			}
		}
	}
}

// ---------------------------------------------------------------- fetch order

// TestFetchOrderMatchesSliceStable checks that the closure-free insertion
// sort in fetch() produces exactly the ordering the previous
// sort.SliceStable call produced, across random fetchable sets, in-flight
// counts (with ties), and rotation offsets, for both ICOUNT and the
// round-robin ablation.
func TestFetchOrderMatchesSliceStable(t *testing.T) {
	for _, rrf := range []bool{false, true} {
		cfg := SMTConfig()
		cfg.RoundRobinFetch = rrf
		e := &Engine{Cfg: cfg, ctxs: make([]ctxState, cfg.Contexts)}
		g := lcg(99)
		for trial := 0; trial < 5000; trial++ {
			for i := range e.ctxs {
				e.ctxs[i].sz = int(g.next(4)) // small range forces ties
			}
			rr := int(g.next(uint64(cfg.Contexts)))
			var f []int
			for ctx := 0; ctx < cfg.Contexts; ctx++ {
				if g.next(4) != 0 {
					f = append(f, ctx)
				}
			}
			want := append([]int(nil), f...)
			sort.SliceStable(want, func(i, j int) bool {
				return e.fetchLess(want[i], want[j], rr)
			})
			got := append([]int(nil), f...)
			for i := 1; i < len(got); i++ {
				for j := i; j > 0 && e.fetchLess(got[j], got[j-1], rr); j-- {
					got[j], got[j-1] = got[j-1], got[j]
				}
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("rrf=%v trial %d: order mismatch: got %v want %v (sz=%v rr=%d)",
						rrf, trial, got, want, sizesOf(e), rr)
				}
			}
			f = f[:0]
		}
	}
}

func sizesOf(e *Engine) []int {
	s := make([]int, len(e.ctxs))
	for i := range e.ctxs {
		s[i] = e.ctxs[i].sz
	}
	return s
}

// ---------------------------------------------------------------- zero alloc

// benchFeed is a minimal allocation-free Feed: a deterministic synthetic
// instruction mix (ALU, loads/stores over a cache-resident working set,
// predictable and mispredicting branches, FP ops) over a short PC loop, so
// the steady-state engine exercises fetch, wrong-path generation, dispatch,
// issue, the event heap, the store buffer, and retire without any kernel
// machinery. Each instruction is a pure function of (ctx, idx); a span is a
// window of benchSpan of them, regenerated when fetch leaves it.
type benchFeed struct {
	base [benchCtxs]uint64
	win  [benchCtxs][benchSpan]FedInst
}

const (
	benchCtxs = 8
	benchSpan = 16
)

func benchInst(ctx int, idx uint64) FedInst {
	s := (uint64(ctx) + 1) * 0x9e3779b97f4a7c15
	s ^= idx * 6364136223846793005
	s = s*6364136223846793005 + 1442695040888963407
	in := FedInst{TID: uint32(ctx), Cat: sys.CatUser}
	in.Mode = isa.User
	in.PC = 0x120000000 + uint64(ctx)<<20 + (idx%1024)*4
	in.Dep1 = uint16(1 + (s>>40)%8)
	switch r := s >> 59; {
	case r < 8:
		in.Class = isa.Load
		in.Addr = 0x1a0000000 + uint64(ctx)<<16 + (s>>13)%8192&^7
		in.Physical = true
	case r < 11:
		in.Class = isa.Store
		in.Addr = 0x1a0000000 + uint64(ctx)<<16 + (s>>13)%8192&^7
		in.Physical = true
	case r < 14:
		in.Class = isa.CondBranch
		in.Taken = s>>7&1 == 0
		in.Target = in.PC + 16
	case r < 16:
		in.Class = isa.FPALU
	default:
		in.Class = isa.IntALU
	}
	return in
}

func (f *benchFeed) Span(ctx int, idx uint64) []FedInst {
	w := &f.win[ctx]
	if idx < f.base[ctx] || idx >= f.base[ctx]+benchSpan || w[0].PC == 0 {
		f.base[ctx] = idx
		for i := range w {
			w[i] = benchInst(ctx, idx+uint64(i))
		}
	}
	return w[idx-f.base[ctx]:]
}

func (*benchFeed) Retired(ctx int, idx uint64, in *FedInst)                           {}
func (*benchFeed) Trap(ctx int, idx uint64, in *FedInst, kind TrapKind, vaddr uint64) {}
func (*benchFeed) Cycle(now uint64) []int                                             { return nil }
func (*benchFeed) Translate(in *FedInst, vaddr uint64) uint64                         { return vaddr }
func (*benchFeed) Halted(ctx int) bool                                                { return false }

func newBenchEngine() *Engine {
	cfg := SMTConfig()
	cfg.AppOnly = true
	return New(cfg, &benchFeed{}, cache.NewHierarchy(cache.DefaultHierConfig()))
}

// TestEngineStepZeroAlloc is the allocation regression gate for the cycle
// loop: after warmup (cold caches and table growth behind it), steady-state
// step() must not allocate at all.
func TestEngineStepZeroAlloc(t *testing.T) {
	e := newBenchEngine()
	e.Run(50000)
	if avg := testing.AllocsPerRun(5000, func() { e.step() }); avg != 0 {
		t.Fatalf("Engine.step steady state allocates %.3f allocs/op, want 0", avg)
	}
}

// BenchmarkEngineStep measures the raw per-cycle cost of the core loop on a
// synthetic feed (no kernel), reporting allocs/op so regressions are visible
// in the BENCH_*.json trajectory.
func BenchmarkEngineStep(b *testing.B) {
	e := newBenchEngine()
	e.Run(50000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.step()
	}
}
