package repro

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/netsim"
)

// regenLib is BenchmarkFigureRegen's checkpoint library. It is built and
// primed once per process, so repeated runs (-count, the b.N ramp) time only
// warm regeneration; TestMain removes it.
var regenLib struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if regenLib.dir != "" {
		os.RemoveAll(regenLib.dir)
	}
	os.Exit(code)
}

// BenchmarkFigureRegen measures regenerating all of Figures 1–7 from a warm
// checkpoint library at the reporting scale (experiments.Full) — the
// `cmd/experiments -windows-parallel` workflow. The one-time library build
// is setup cost outside the timer; the figureRegenSec metric is the
// wall-clock for a full warm regeneration, which `make bench-diff` gates so
// the library path's speedup over serial rendering cannot silently rot.
func BenchmarkFigureRegen(b *testing.B) {
	figs := []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7"}
	sc := experiments.Full
	sc.Sampling = experiments.WindowedSampling(sc)
	workers := runtime.GOMAXPROCS(0)
	regenLib.once.Do(func() {
		// Prime: build the three configuration libraries and prove the
		// render path works.
		if regenLib.dir, regenLib.err = os.MkdirTemp("", "figure-regen-"); regenLib.err != nil {
			return
		}
		prime := experiments.NewWindowRunner(experiments.WindowedConfig{Dir: regenLib.dir, Workers: workers})
		if out := experiments.RenderWindowed(figs, sc, 1, prime); strings.Count(out, "################") != len(figs) {
			regenLib.err = fmt.Errorf("priming render failed:\n%s", out)
		}
	})
	if regenLib.err != nil {
		b.Fatal(regenLib.err)
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh runner per iteration drops the memoized window results,
		// so every iteration restores and re-simulates each library window.
		wr := experiments.NewWindowRunner(experiments.WindowedConfig{Dir: regenLib.dir, Workers: workers})
		out := experiments.RenderWindowed(figs, sc, 1, wr)
		if len(out) == 0 {
			b.Fatal("empty windowed render")
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "figureRegenSec")
}

// benchThroughput measures simulator speed (simulated cycles per second)
// on 2M cycles of the Apache workload (Figure 5's configuration), with the
// given sampling — an engineering metric, not a paper artifact.
func benchThroughput(b *testing.B, sampling core.Sampling) {
	sc := experiments.Scale{Warmup: 200_000, Measure: 1_800_000, Interval: 60_000, Sampling: sampling}
	// Collect garbage left by earlier benchmarks in the same binary so GC
	// pressure from their heaps does not distort the throughput numbers.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Execute(experiments.Plan{IDs: []string{"fig5"}, Scale: sc, Seed: uint64(i + 1), Seeds: 1, Workers: 1})
		if err == nil {
			err = out[0].Err
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(2_000_000)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSimulatorThroughput measures full-detail simulation speed.
func BenchmarkSimulatorThroughput(b *testing.B) { benchThroughput(b, core.Sampling{}) }

// BenchmarkSimulatorThroughputSampled measures the same workload and scale
// in sampled mode (fast-forward with warming between detailed windows). The
// simcycles/s ratio between the two is the sampled-mode speedup.
func BenchmarkSimulatorThroughputSampled(b *testing.B) {
	benchThroughput(b, core.Sampling{Period: 250_000, DetailWindow: 5_000})
}

// --- Event-driven netsim scaling (see DESIGN.md "Event-driven netsim") ---

// benchNetTick measures network ticks against a minimal in-process
// responder, holding the active load fixed (~250 arrivals per tick via
// think/stagger scaling) while the fleet size sweeps 1k→1M. One iteration
// is a fixed batch of ticks, so even -benchtime 1x averages over many. The
// per-tick netTickNs metric lands in BENCH_<date>.json and is gated by
// `make bench-diff`: per tick the event-driven driver is
// O(active + arrivals), so netTickNs must stay flat as the dormant
// population grows 1000x.
func benchNetTick(b *testing.B, clients int) {
	const arrivalsPerTick, ticksPerOp = 250, 64
	stagger := clients / arrivalsPerTick
	if stagger < 1 {
		stagger = 1
	}
	net := netsim.New(netsim.Config{
		Clients: clients, Seed: 7, RequestBytes: 300,
		ThinkTicks: stagger, StaggerTicks: stagger,
	})
	// The responder serves each known connection up to two 1460-byte
	// segments per tick — enough protocol back-and-forth to exercise acks,
	// demux, and multi-tick responses without dragging the kernel in.
	left := map[int]int{}
	var order []int
	tick := uint64(0)
	step := func() {
		tick++
		for _, fr := range net.Tick(tick) {
			switch {
			case fr.Corrupt || fr.Ack || fr.Conn == 0:
			case fr.Close:
				delete(left, fr.Conn)
			default:
				if _, ok := left[fr.Conn]; !ok {
					if sz := net.FileSize(fr.Conn); sz > 0 {
						left[fr.Conn] = sz
						order = append(order, fr.Conn)
					}
				}
			}
		}
		kept := order[:0]
		for _, conn := range order {
			n, ok := left[conn]
			if !ok {
				continue
			}
			for seg := 0; seg < 2 && n > 0; seg++ {
				chunk := 1460
				if chunk > n {
					chunk = n
				}
				n -= chunk
				net.Transmit(kernel.Frame{Conn: conn, Bytes: chunk}, 0)
			}
			if n == 0 {
				delete(left, conn)
			} else {
				left[conn] = n
				kept = append(kept, conn)
			}
		}
		order = kept
	}
	// Reach steady state (arrival waves overlapping completions) off-timer.
	for i := 0; i < 2048; i++ {
		step()
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N*ticksPerOp; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ticksPerOp), "netTickNs")
}

// BenchmarkNetTick1k is the small-fleet baseline tick cost.
func BenchmarkNetTick1k(b *testing.B) { benchNetTick(b, 1_000) }

// BenchmarkNetTick100k holds the active load of the 1k fleet with 100x the
// dormant population.
func BenchmarkNetTick100k(b *testing.B) { benchNetTick(b, 100_000) }

// BenchmarkNetTick1M is the million-client point: same active load, 1000x
// the population; netTickNs must stay within noise of the 100k point.
func BenchmarkNetTick1M(b *testing.B) { benchNetTick(b, 1_000_000) }
