GO ?= go

.PHONY: check build vet lint test race audit ckpt-smoke exhaust-smoke scale-smoke bench-smoke sample-smoke fuzz-smoke bench bench-diff regen-bench run experiments

# check is the full verification gate: compile, vet, the determinism linter,
# the whole test suite, a fast race pass (Quick-scale simulations skip under
# -short, so the race leg stays cheap while still covering the worker pool
# and fault-injection paths), an audited simulation leg, a checkpoint
# save/restore round trip, a sampled-mode determinism smoke, a resource-
# exhaustion smoke, a large-fleet event-driven netsim smoke, a
# one-iteration benchmark smoke, and a short run of every fuzz target.
check: build vet lint test race audit ckpt-smoke sample-smoke exhaust-smoke scale-smoke bench-smoke fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint enforces the determinism, reporting, and hot-path contracts with the
# detlint analyzers (maporder, walltime, snapshotcomplete, nogoroutine,
# hotalloc, counterflow, seedflow; see ANALYSIS.md).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/detlint ./internal/... ./cmd/...

test:
	$(GO) test -timeout 30m ./...

race:
	$(GO) test -race -short -timeout 30m ./...

# audit runs a web simulation with the invariant auditor on a tight period:
# it exits nonzero on any cross-layer inconsistency (see CHECKPOINT.md).
audit:
	$(GO) run ./cmd/ossmt -workload apache -warmup 500000 -cycles 1000000 -audit 200000 > /dev/null

# ckpt-smoke proves the checkpoint round trip end to end through the CLI:
# save at the end of one run, resume from the file, audit the resumed state.
ckpt-smoke:
	$(GO) run ./cmd/ossmt -workload apache -warmup 300000 -cycles 500000 \
		-checkpoint /tmp/ossmt-smoke.ckpt > /dev/null
	$(GO) run ./cmd/ossmt -restore /tmp/ossmt-smoke.ckpt -warmup 0 -cycles 300000 \
		-audit 150000 > /dev/null
	rm -f /tmp/ossmt-smoke.ckpt

# sample-smoke proves the sampled mode's determinism contract end to end
# through the CLI — two identical sampled runs must produce byte-identical
# output — and runs the sampled-vs-full error-band test at Quick scale.
sample-smoke:
	$(GO) run ./cmd/ossmt -workload apache -warmup 100000 -cycles 400000 \
		-sample -sample-period 100000 -sample-window 5000 > /tmp/ossmt-sample-a.txt
	$(GO) run ./cmd/ossmt -workload apache -warmup 100000 -cycles 400000 \
		-sample -sample-period 100000 -sample-window 5000 > /tmp/ossmt-sample-b.txt
	cmp /tmp/ossmt-sample-a.txt /tmp/ossmt-sample-b.txt
	rm -f /tmp/ossmt-sample-a.txt /tmp/ossmt-sample-b.txt
	$(GO) test -run 'TestSamplingAblationWithinBand' ./internal/experiments

# exhaust-smoke proves graceful degradation under resource exhaustion end to
# end through the CLI: a run with a mid-run memory and pool squeeze must
# finish (no watchdog trip), pass the invariant auditor (including the
# resource-accounting check), and reproduce byte-identically (see FAULTS.md,
# "Exhaustion").
exhaust-smoke:
	$(GO) run ./cmd/ossmt -workload apache -warmup 200000 -cycles 400000 \
		-interval 40000 -clients 96 -idle-timeout 4 \
		-mem-frames 1600 -sock-table 48 -mbuf-pool 24 -fd-limit 2 \
		-mem-squeeze 0.55 -pool-squeeze 0.5 -squeeze-tick 2 \
		-audit 100000 > /tmp/ossmt-exhaust-a.txt
	$(GO) run ./cmd/ossmt -workload apache -warmup 200000 -cycles 400000 \
		-interval 40000 -clients 96 -idle-timeout 4 \
		-mem-frames 1600 -sock-table 48 -mbuf-pool 24 -fd-limit 2 \
		-mem-squeeze 0.55 -pool-squeeze 0.5 -squeeze-tick 2 \
		-audit 100000 > /tmp/ossmt-exhaust-b.txt
	cmp /tmp/ossmt-exhaust-a.txt /tmp/ossmt-exhaust-b.txt
	grep -q 'resources:' /tmp/ossmt-exhaust-a.txt
	rm -f /tmp/ossmt-exhaust-a.txt /tmp/ossmt-exhaust-b.txt

# scale-smoke proves the event-driven netsim at fleet scale end to end
# through the CLI: a 100k-client staggered run with the invariant auditor on
# must finish, report tail-latency percentiles, and reproduce
# byte-identically (see DESIGN.md, "Event-driven netsim"). It also reruns
# the driver-equivalence tests with the reference full-scan driver as the
# build-time default (-tags netsimref), so the pinned byte-identity holds
# from both directions.
scale-smoke:
	$(GO) run ./cmd/ossmt -workload apache -warmup 200000 -cycles 400000 \
		-interval 40000 -clients 100000 -stagger 400 -think 400 \
		-measure-latency -idle-timeout 8 \
		-audit 100000 > /tmp/ossmt-scale-a.txt
	$(GO) run ./cmd/ossmt -workload apache -warmup 200000 -cycles 400000 \
		-interval 40000 -clients 100000 -stagger 400 -think 400 \
		-measure-latency -idle-timeout 8 \
		-audit 100000 > /tmp/ossmt-scale-b.txt
	cmp /tmp/ossmt-scale-a.txt /tmp/ossmt-scale-b.txt
	grep -q 'latency ticks' /tmp/ossmt-scale-a.txt
	rm -f /tmp/ossmt-scale-a.txt /tmp/ossmt-scale-b.txt
	$(GO) test -tags netsimref -run 'TestEventDriven|TestSnapshotRoundTrip' ./internal/netsim/

# bench-smoke runs every benchmark exactly once — it exists to catch
# crashes in bench-only code paths, not to measure anything.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > /dev/null

# fuzz-smoke runs every Fuzz* target under internal/ and cmd/ for 10 seconds
# on top of its committed seed corpus (testdata/fuzz/<target>). go test -fuzz
# takes one target per package run, so the targets are found by name and run
# one by one; a new Fuzz* function joins the leg without editing this file.
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd | sort); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: $$t ./$$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s ./$$(dirname $$f); \
		done; \
	done

# bench records the performance trajectory: the full benchmark suite at its
# fixed scale, converted to BENCH_<date>.json (simcycles/s, ns/op,
# allocs/op per benchmark; see EXPERIMENTS.md "Performance work").
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > /tmp/bench.out
	cat /tmp/bench.out
	$(GO) run ./cmd/benchjson -date $$(date +%F) < /tmp/bench.out > BENCH_$$(date +%F).json
	@echo wrote BENCH_$$(date +%F).json

# bench-diff reruns the benchmark suite and compares it against the newest
# committed BENCH_<date>.json baseline, failing on ns/op regressions (see
# cmd/benchjson -diff). The tool's default gate is 10%, tuned for quiet
# dedicated hardware; single-iteration timing on shared/virtualized runners
# swings by double digits run to run, so this target defaults to a wider
# threshold. Override with BENCHDIFF_THRESHOLD=10 on a quiet box.
BENCHDIFF_THRESHOLD ?= 30
bench-diff:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./... > /tmp/bench-diff.out
	$(GO) run ./cmd/benchjson -date $$(date +%F) < /tmp/bench-diff.out > /tmp/bench-diff.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCHDIFF_THRESHOLD) \
		$$(ls BENCH_*.json | sort | tail -1) /tmp/bench-diff.json

# regen-bench measures just the checkpoint-library figure regeneration
# (BenchmarkFigureRegen) and gates its figureRegenSec metric against the
# newest committed BENCH_<date>.json baseline — the fast CI check that the
# library path's speedup over serial rendering has not rotted. The JSON goes
# to /tmp so it can never be mistaken for a committed baseline.
regen-bench:
	$(GO) test -run '^$$' -bench '^BenchmarkFigureRegen$$' -benchtime 1x . > /tmp/regen-bench.out
	cat /tmp/regen-bench.out
	$(GO) run ./cmd/benchjson -date $$(date +%F) < /tmp/regen-bench.out > /tmp/regen-bench.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCHDIFF_THRESHOLD) \
		$$(ls BENCH_*.json | sort | tail -1) /tmp/regen-bench.json

# run is a small demo simulation.
run:
	$(GO) run ./cmd/ossmt -workload apache -warmup 1000000 -cycles 2000000

# experiments regenerates EXPERIMENTS.md content (see cmd/experiments).
experiments:
	$(GO) run ./cmd/experiments
