// Command simbench is the repository's benchmark: it times the simulator's
// public entry points on three workloads and checks their outputs.
//
//	bash simbench/run.sh --workload apache-smt --seed 1 --seconds 12 --trace 0
//
// Every op of a run restores the same warm state and simulates the same
// interval, so ops do identical simulated work and their spread is host
// noise. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones, from
// spans around each call and a CPU profile of each traced op. README.md
// describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// plan is how a workload's run is shaped around its timed ops.
type plan struct {
	// setups is how many times setup runs; setup_s is their median.
	// figure-regen's set-up, the library build, takes 10 s in a fast phase
	// of the host and 20 s in a slow one; three of them would not leave
	// every run of the benchmark within its time budget.
	setups int
	// discard is how many leading ops run untimed while the heap settles
	// (figure-regen's prime pass already runs every window once). The
	// run's first op is the reference every later op is checked against.
	discard int
}

var plans = map[string]plan{
	"apache-smt":   {setups: 3, discard: 1},
	"apache-fleet": {setups: 3, discard: 2},
	"figure-regen": {setups: 2, discard: 0},
}

// minOps is the fewest timed ops a run reports a median over; a traced
// run needs minTracedOps, half of them traced.
const (
	minOps       = 3
	minTracedOps = 4
)

// yardShare is the least share of the previous set-up's or op's time the
// yardstick runs for before the next one (yardstick.go).
const yardShare = 0.1

// Reconciliation tolerances of a traced run: the spans around the
// simulator calls must cover the op's timed region to within
// maxUnattributedPct (what they leave out is the benchmark's own work in
// the region: the digest and its checks), and the CPU profile's samples
// must account for between minProfiledPct and maxProfiledPct of it.
const (
	maxUnattributedPct = 5
	minProfiledPct     = 85
	maxProfiledPct     = 110
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// small shrinks every workload to a tiny interval (tests).
	small bool
	// dir is the scratch directory for on-disk state.
	dir string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload: apache-smt, apache-fleet or figure-regen")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 12, "seconds of timed ops")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := plans[cfg.workload]; !ok || cfg.seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "simbench: need --workload apache-smt|apache-fleet|figure-regen, --seconds >= 1, --trace 0|1")
		return 2
	}
	cfg.trace = *traceFlag == 1
	// One simulation thread: the garbage collector then shares the op's
	// processor instead of racing it on another one, which keeps op times
	// and the CPU profile's shares comparable run to run.
	runtime.GOMAXPROCS(1)
	cfg.dir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	defer os.RemoveAll(cfg.dir)

	res, err := measure(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "digest workload=%s seed=%d sim=%s\n", cfg.workload, cfg.seed, res.digest)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.reconciled, res.attempted, res.failed, res.metrics}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// opSample is the host cost of one op.
type opSample struct {
	wall        time.Duration
	alloc, live uint64 // bytes allocated by the op; live heap after it
	traced      bool
}

// result is everything a run measured.
type result struct {
	attempted, failed int
	reconciled        bool
	digest            string
	metrics           map[string]metric
}

// measure runs setup, the discarded leading ops and the timed ops, and
// computes the metrics.
func measure(cfg config, log io.Writer) (result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.dir, cfg.small)
	if err != nil {
		return result{}, err
	}
	y, err := newYardstick()
	if err != nil {
		return result{}, err
	}
	defer y.close()
	p := plans[cfg.workload]
	tr := newTracer(cfg.trace)
	setupSplit, opSplit := newHostSplit(), newHostSplit()

	// pace collects garbage and times the yardstick into yard, just
	// before a set-up or an op is measured. The yardstick runs at least
	// once and until it has taken yardShare of last, the previous set-up's
	// or op's time, so that a run with few long ops still takes many
	// yardstick samples. Set-ups and ops are each scaled by the samples
	// taken around them, since the host's speed drifts during a run.
	var setupYard, opYard []time.Duration
	pace := func(yard *[]time.Duration, last time.Duration) {
		runtime.GC()
		for spent := time.Duration(0); spent == 0 || spent < time.Duration(yardShare*float64(last)); {
			d := y.run()
			*yard = append(*yard, d)
			spent += d
		}
	}
	y.run() // fault its tables in

	// Set-up: the median of several builds, each replacing the last.
	var setups []time.Duration
	var last time.Duration
	for i := 0; i < p.setups; i++ {
		pace(&setupYard, last)
		t0 := time.Now()
		err := traced(cfg.trace, setupSplit, func() error { return tr.do("setup", func() error { return w.setup(tr) }) })
		if err != nil {
			return result{}, fmt.Errorf("setup: %w", err)
		}
		last = time.Since(t0)
		setups = append(setups, last)
		fmt.Fprintf(log, "setup %d: %.2fs yardstick=%.1fms\n", i, setups[i].Seconds(), durMs(setupYard[len(setupYard)-1]))
	}
	pace(&setupYard, last)

	if err := w.prime(); err != nil {
		return result{}, fmt.Errorf("prime: %w", err)
	}

	res := result{reconciled: true}
	var ref opResult
	off := newTracer(false)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	prevAlloc := ms.TotalAlloc
	// runOp times one op, then collects its garbage and reads the heap, so
	// the next op starts from a collected heap outside its timed region.
	// The timed region is the "op" span: the op and the comparison of its
	// digest with the first op's. A traced op's CPU profile is started
	// before the region and stopped and decoded after it.
	last = 0
	runOp := func(traceIt bool) (opSample, bool) {
		pace(&opYard, last)
		t := off
		if traceIt {
			t = tr
		}
		var r opResult
		var opErr error
		var wall time.Duration
		err := traced(traceIt, opSplit, func() error {
			t0 := time.Now()
			t.do("op", func() error {
				r, opErr = w.op(t)
				if opErr == nil && ref.digest != "" && r.digest != ref.digest {
					opErr = fmt.Errorf("simulated digest %s differs from the first op's %s", r.digest, ref.digest)
				}
				return nil
			})
			wall = time.Since(t0)
			return nil
		})
		if opErr == nil {
			opErr = err
		}
		s := opSample{wall: wall, traced: traceIt}
		last = wall
		res.attempted++
		if opErr != nil {
			res.failed++
			fmt.Fprintf(log, "op %d failed: %v\n", res.attempted, opErr)
		} else if ref.digest == "" {
			ref = r
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		s.alloc, s.live = ms.TotalAlloc-prevAlloc, ms.HeapAlloc
		prevAlloc = ms.TotalAlloc
		fmt.Fprintf(log, "op %d: %.1fms traced=%v alloc=%.0fMiB live=%.0fMiB yardstick=%.1fms\n",
			res.attempted, durMs(s.wall), traceIt, mib(s.alloc), mib(s.live), durMs(opYard[len(opYard)-1]))
		return s, opErr == nil
	}
	for i := 0; i < p.discard; i++ {
		runOp(false)
	}
	// A traced run alternates untraced and traced ops, so the tracing
	// overhead is measured under the same conditions.
	var ops []opSample
	start := time.Now()
	need := minOps
	if cfg.trace {
		need = minTracedOps
	}
	for n := 0; n < need || time.Since(start) < time.Duration(cfg.seconds)*time.Second; n++ {
		if s, ok := runOp(cfg.trace && n%2 == 1); ok {
			ops = append(ops, s)
		}
	}
	if ref.digest == "" {
		return res, fmt.Errorf("no op succeeded")
	}
	res.digest = ref.digest
	if cfg.trace {
		tr.summary(log)
		res.metrics, res.reconciled = perLayer(w, ref, ops, medianMs(opYard), tr, setupSplit, opSplit, log)
	} else {
		res.metrics = endToEnd(setups, ops, medianMs(setupYard), medianMs(opYard))
	}
	return res, nil
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// median returns the median of xs (the mean of the middle two for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// medianMs is the median of ds in milliseconds.
func medianMs(ds []time.Duration) float64 {
	var xs []float64
	for _, d := range ds {
		xs = append(xs, durMs(d))
	}
	return median(xs)
}

// medianOf is the median of f over the ops (traced or untraced ones).
func medianOf(ops []opSample, traced bool, f func(opSample) float64) float64 {
	var xs []float64
	for _, o := range ops {
		if o.traced == traced {
			xs = append(xs, f(o))
		}
	}
	return median(xs)
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
