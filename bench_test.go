package repro

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernel"
	"repro/internal/netsim"
)

// benchScale keeps each regenerated artifact affordable under `go test
// -bench`. One benchmark iteration = one full experiment (warm-up +
// measured window); key numbers are attached as custom metrics so `-bench`
// output doubles as a results table.
var benchScale = experiments.Scale{Warmup: 400_000, Measure: 600_000, Interval: 100_000}

// runOne regenerates one experiment through experiments.Execute, serially
// and unsupervised.
func runOne(id string, sc experiments.Scale, seed uint64) (experiments.Result, error) {
	out, err := experiments.Execute(experiments.Plan{IDs: []string{id}, Scale: sc, Seed: seed, Seeds: 1, Workers: 1})
	if err != nil {
		return experiments.Result{}, err
	}
	return out[0].Res, out[0].Err
}

// runExperiment executes one paper artifact per benchmark iteration and
// reports its key values as benchmark metrics.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		res, err := runOne(id, benchScale, uint64(1+i))
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	for k, v := range last.Values {
		b.ReportMetric(v, k)
	}
}

// --- Figures ---

// BenchmarkFig1SPECIntCycleBreakdown regenerates Figure 1 (user/kernel/idle
// cycle shares over time for SPECInt95 on SMT).
func BenchmarkFig1SPECIntCycleBreakdown(b *testing.B) { runExperiment(b, "fig1") }

// BenchmarkFig2KernelTimeBreakdown regenerates Figure 2 (kernel-time
// categories, start-up vs steady state, SMT and superscalar).
func BenchmarkFig2KernelTimeBreakdown(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFig3VMEntries regenerates Figure 3 (kernel memory-management
// incursions by kind).
func BenchmarkFig3VMEntries(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4Syscalls regenerates Figure 4 (system calls as % of cycles).
func BenchmarkFig4Syscalls(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5ApacheModes regenerates Figure 5 (kernel/user activity in
// Apache on SMT).
func BenchmarkFig5ApacheModes(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6ApacheKernelBreakdown regenerates Figure 6 (Apache kernel
// activity vs SPECInt phases).
func BenchmarkFig6ApacheKernelBreakdown(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFig7ApacheSyscalls regenerates Figure 7 (Apache syscall time by
// name and by resource).
func BenchmarkFig7ApacheSyscalls(b *testing.B) { runExperiment(b, "fig7") }

// --- Tables ---

// BenchmarkTable2InstructionMix regenerates Table 2 (SPECInt instruction mix).
func BenchmarkTable2InstructionMix(b *testing.B) { runExperiment(b, "tab2") }

// BenchmarkTable3MissClassification regenerates Table 3 (SPECInt miss rates
// and conflict classification).
func BenchmarkTable3MissClassification(b *testing.B) { runExperiment(b, "tab3") }

// BenchmarkTable4OSImpact regenerates Table 4 (SPEC with/without OS on SMT
// and superscalar).
func BenchmarkTable4OSImpact(b *testing.B) { runExperiment(b, "tab4") }

// BenchmarkTable5ApacheInstructionMix regenerates Table 5 (Apache mix).
func BenchmarkTable5ApacheInstructionMix(b *testing.B) { runExperiment(b, "tab5") }

// BenchmarkTable6ApacheArchMetrics regenerates Table 6 (Apache/SMT vs
// SPECInt/SMT vs Apache/superscalar) — the paper's headline 4.2x result.
func BenchmarkTable6ApacheArchMetrics(b *testing.B) { runExperiment(b, "tab6") }

// BenchmarkTable7ApacheMissClassification regenerates Table 7 (Apache miss
// causes across six hardware structures).
func BenchmarkTable7ApacheMissClassification(b *testing.B) { runExperiment(b, "tab7") }

// BenchmarkTable8ConstructiveSharing regenerates Table 8 (misses avoided by
// interthread prefetching, SMT vs superscalar).
func BenchmarkTable8ConstructiveSharing(b *testing.B) { runExperiment(b, "tab8") }

// BenchmarkTable9OSImpactApache regenerates Table 9 (OS impact on hardware
// structures for Apache).
func BenchmarkTable9OSImpactApache(b *testing.B) { runExperiment(b, "tab9") }

// --- Ablations (design choices called out in DESIGN.md §6) ---

// BenchmarkAblationFetchPolicy compares ICOUNT 2.8 against round-robin fetch.
func BenchmarkAblationFetchPolicy(b *testing.B) { runExperiment(b, "ablation-fetch") }

// BenchmarkAblationContexts sweeps the hardware context count 1..8.
func BenchmarkAblationContexts(b *testing.B) { runExperiment(b, "ablation-contexts") }

// BenchmarkAblationIdleLoop compares halting vs spinning idle loops.
func BenchmarkAblationIdleLoop(b *testing.B) { runExperiment(b, "ablation-idle") }

// BenchmarkAblationInterruptInterval sweeps the 10 ms interrupt granularity.
func BenchmarkAblationInterruptInterval(b *testing.B) { runExperiment(b, "ablation-interrupt") }

// BenchmarkAblationServerProcesses sweeps the Apache pool size.
func BenchmarkAblationServerProcesses(b *testing.B) { runExperiment(b, "ablation-procs") }

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
	dir := b.TempDir()
	// Prime: builds the three configuration libraries and proves the render
	// path works before the timer starts.
	workers := runtime.GOMAXPROCS(0)
	prime := experiments.NewWindowRunner(experiments.WindowedConfig{Dir: dir, Workers: workers})
	if out := experiments.RenderWindowed(figs, sc, 1, prime); strings.Count(out, "################") != len(figs) {
		b.Fatalf("priming render failed:\n%s", out)
	}
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh runner per iteration drops the memoized window results,
		// so every iteration restores and re-simulates each library window.
		wr := experiments.NewWindowRunner(experiments.WindowedConfig{Dir: dir, Workers: workers})
		out := experiments.RenderWindowed(figs, sc, 1, wr)
		if len(out) == 0 {
			b.Fatal("empty windowed render")
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N), "figureRegenSec")
}

// BenchmarkSimulatorThroughput measures raw simulator speed (simulated
// cycles per second) on the Apache workload — an engineering metric, not a
// paper artifact.
func BenchmarkSimulatorThroughput(b *testing.B) {
	// Collect garbage left by earlier benchmarks in the same binary so GC
	// pressure from their heaps does not distort the throughput numbers.
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runOne("fig5", experiments.Scale{
			Warmup: 200_000, Measure: 1_800_000, Interval: 60_000,
		}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(float64(2_000_000)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkSimulatorThroughputSampled measures the same workload and scale
// as BenchmarkSimulatorThroughput in sampled mode (fast-forward with
// warming between detailed windows). The simcycles/s ratio between the two
// is the sampled-mode speedup.
func BenchmarkSimulatorThroughputSampled(b *testing.B) {
	runtime.GC()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runOne("fig5", experiments.Scale{
			Warmup: 200_000, Measure: 1_800_000, Interval: 60_000,
			Sampling: core.Sampling{Period: 250_000, DetailWindow: 5_000},
		}, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
	b.ReportMetric(float64(2_000_000)*float64(b.N)/b.Elapsed().Seconds(), "simcycles/s")
}

// BenchmarkAblationSampling regenerates the sampled-vs-full validation.
func BenchmarkAblationSampling(b *testing.B) { runExperiment(b, "ablation-sampling") }

// BenchmarkAblationNetworkDMA tests the paper's §2.2.1 claim that omitting
// NIC DMA from the memory bus does not change the bottom line.
func BenchmarkAblationNetworkDMA(b *testing.B) { runExperiment(b, "ablation-dma") }

// BenchmarkAblationAffinityScheduler compares the stock FIFO scheduler with
// the cache-affinity extension (the paper's future-work direction).
func BenchmarkAblationAffinityScheduler(b *testing.B) { runExperiment(b, "ablation-affinity") }

// BenchmarkAblationKeepAlive compares per-request connections (the paper's
// SPECWeb96 setup) with persistent HTTP/1.1-style connections.
func BenchmarkAblationKeepAlive(b *testing.B) { runExperiment(b, "ablation-keepalive") }

// BenchmarkAblationDiskBound contrasts the paper's cached fileset with a
// disk-bound one (every miss runs the driver + DMA; the disk is free).
func BenchmarkAblationDiskBound(b *testing.B) { runExperiment(b, "ablation-diskbound") }

// --- Event-driven netsim scaling (see DESIGN.md "Event-driven netsim") ---

// benchNetTick measures one network tick against a minimal in-process
// responder, holding the active load fixed (~250 arrivals per tick via
// think/stagger scaling) while the fleet size sweeps 1k→1M. The netTickNs
// metric lands in BENCH_<date>.json and is gated by `make bench-diff`: per
// tick the event-driven driver is O(active + arrivals), so netTickNs must
// stay flat as the dormant population grows 1000x.
func benchNetTick(b *testing.B, clients int) {
	const arrivalsPerTick = 250
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
	for i := 0; i < b.N; i++ {
		step()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "netTickNs")
}

// BenchmarkNetTick1k is the small-fleet baseline tick cost.
func BenchmarkNetTick1k(b *testing.B) { benchNetTick(b, 1_000) }

// BenchmarkNetTick100k holds the active load of the 1k fleet with 100x the
// dormant population.
func BenchmarkNetTick100k(b *testing.B) { benchNetTick(b, 100_000) }

// BenchmarkNetTick1M is the million-client point: same active load, 1000x
// the population; netTickNs must stay within noise of the 100k point.
func BenchmarkNetTick1M(b *testing.B) { benchNetTick(b, 1_000_000) }
