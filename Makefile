GO ?= go

.PHONY: check build vet lint test race netsimref simbench-test bench-smoke fuzz-smoke bench bench-diff bench-ab run experiments

# check is the full verification gate: compile, vet, the determinism linter,
# the whole test suite (including cmd/ossmt's in-process smoke legs: an
# audited run, a checkpoint save/resume round trip, and byte-identical
# reruns of the sampled, resource-exhaustion and 100k-client fleet runs), a
# fast race pass (Quick-scale simulations skip under -short, so the race leg
# stays cheap while still covering the worker pool and fault-injection
# paths), the netsim equivalence tests under the reference driver, the
# benchmark module's own tests, a one-iteration benchmark smoke, and a
# short run of every fuzz target.
check: build vet lint test race netsimref simbench-test bench-smoke fuzz-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint requires gofmt-clean sources (testdata fixtures included), then
# enforces the determinism, reporting, and hot-path contracts with the
# detlint analyzers (maporder, walltime, snapshotcomplete, nogoroutine,
# hotalloc, counterflow, seedflow; see ANALYSIS.md).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l: needs formatting:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/detlint ./internal/... ./cmd/...

test:
	$(GO) test -timeout 30m ./...

race:
	$(GO) test -race -short -timeout 30m ./...

# netsimref reruns the driver-equivalence tests with the reference full-scan
# driver as the build-time default (-tags netsimref), so the pinned
# byte-identity of the event-driven netsim holds from both directions (see
# DESIGN.md, "Event-driven netsim").
netsimref:
	$(GO) test -tags netsimref -run 'TestEventDriven|TestSnapshotRoundTrip' ./internal/netsim/

# simbench-test runs the tests of the benchmark module (simbench/, its own
# Go module, so ./... at the root does not reach it): every workload at its
# small size, run twice and once traced, so a digest that moves between
# runs or a failed restore check shows up before a benchmark run.
simbench-test:
	$(GO) -C simbench test .

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

# bench records the performance trajectory: the benchmark suite at its
# fixed scale and GOMAXPROCS 2 (-cpu 2, so every name carries the same -2
# suffix on any host), five runs of each, converted to BENCH_<date>.json
# (the median simcycles/s, ns/op, allocs/op, figureRegenSec and netTickNs
# per benchmark; see EXPERIMENTS.md "Performance work"). Paper fidelity is
# not a benchmark: TestFidelity checks it.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 5 -cpu 2 ./... > /tmp/bench.out
	cat /tmp/bench.out
	$(GO) run ./cmd/benchjson -date $$(date +%F) < /tmp/bench.out > BENCH_$$(date +%F).json
	@echo wrote BENCH_$$(date +%F).json

# bench-diff reruns the benchmark suite (at -cpu 2, like bench) and compares
# its medians against the newest committed BENCH_<date>.json baseline,
# failing when the two share no benchmark or when a gated metric regresses
# (cmd/benchjson's rules table: ns/op, figureRegenSec, netTickNs, each with
# a noise floor). The tool's default gate is 10%, tuned
# for quiet dedicated hardware; timing on shared/virtualized runners swings
# by double digits run to run, so this target defaults to a wider
# threshold. Override with BENCHDIFF_THRESHOLD=10 on a quiet box.
BENCHDIFF_THRESHOLD ?= 30
bench-diff:
	$(GO) test -run '^$$' -bench . -benchtime 1x -count 5 -cpu 2 ./... > /tmp/bench-diff.out
	$(GO) run ./cmd/benchjson -date $$(date +%F) < /tmp/bench-diff.out > /tmp/bench-diff.json
	$(GO) run ./cmd/benchjson -diff -threshold $(BENCHDIFF_THRESHOLD) \
		$$(ls BENCH_*.json | sort | tail -1) /tmp/bench-diff.json

# bench-ab compares the working tree against the revision BASE on this host,
# in pairs: it exports BASE with git archive, builds the root and
# internal/pipeline test binaries of both sides with go test -c, then runs
# BenchmarkSimulatorThroughput (one full-detail run),
# BenchmarkSimulatorThroughputSampled (the same run sampled, so mostly the
# fast-forward path), BenchmarkEngineStep (a fixed number of cycles) and
# BenchmarkNetTick100k and BenchmarkNetTick1M (the client driver's tick at
# 10^5 and 10^6 clients with the same active load) for 10 pairs each,
# alternating which side runs first, each binary from its own package
# directory. It prints every pair's ns/op and head/base ratio and the
# median ratio per benchmark (below 1 means the working tree is faster). Pairing cancels the host's
# slow and fast phases that a stored baseline cannot; it reports, it does
# not gate. Usage: make bench-ab BASE=<rev>
BENCHAB_DIR ?= /tmp/bench-ab
bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev>"; exit 2; }
	rm -rf $(BENCHAB_DIR) && mkdir -p $(BENCHAB_DIR)/base
	git archive --format=tar $(BASE) | tar -x -C $(BENCHAB_DIR)/base
	cd $(BENCHAB_DIR)/base && $(GO) test -c -o $(BENCHAB_DIR)/base-root.test . && \
		$(GO) test -c -o $(BENCHAB_DIR)/base-pipeline.test ./internal/pipeline
	$(GO) test -c -o $(BENCHAB_DIR)/head-root.test . && \
		$(GO) test -c -o $(BENCHAB_DIR)/head-pipeline.test ./internal/pipeline
	@set -e; d=$(BENCHAB_DIR); here=$$(pwd); \
	run() { side=$$1; pkg=$$2; bench=$$3; bt=$$4; \
		if [ $$side = base ]; then dir=$$d/base; else dir=$$here; fi; \
		if [ $$pkg = pipeline ]; then dir=$$dir/internal/pipeline; fi; \
		(cd $$dir && $$d/$$side-$$pkg.test -test.run '^$$' -test.bench "^$$bench\$$" \
			-test.benchtime $$bt -test.cpu 2 -test.timeout 30m) | \
			awk -v b=$$bench '$$1 ~ "^"b"(-[0-9]+)?$$" {print $$3}'; }; \
	for spec in root:BenchmarkSimulatorThroughput:1x root:BenchmarkSimulatorThroughputSampled:1x \
		pipeline:BenchmarkEngineStep:200000x root:BenchmarkNetTick100k:20x \
		root:BenchmarkNetTick1M:20x; do \
		pkg=$${spec%%:*}; rest=$${spec#*:}; bench=$${rest%%:*}; bt=$${rest#*:}; \
		: > $$d/ratios; \
		for i in $$(seq 1 10); do \
			if [ $$((i % 2)) = 1 ]; then b=$$(run base $$pkg $$bench $$bt); h=$$(run head $$pkg $$bench $$bt); \
			else h=$$(run head $$pkg $$bench $$bt); b=$$(run base $$pkg $$bench $$bt); fi; \
			r=$$(awk -v h=$$h -v b=$$b 'BEGIN {printf "%.3f", h / b}'); echo $$r >> $$d/ratios; \
			echo "bench-ab: $$bench pair $$i: base $$b ns/op, head $$h ns/op, head/base $$r"; \
		done; \
		sort -g $$d/ratios | awk -v b=$$bench '{v[NR] = $$1} END {m = NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2; \
			printf "bench-ab: %s median head/base %.3f over %d pairs\n", b, m, NR}'; \
	done

# run is a small demo simulation.
run:
	$(GO) run ./cmd/ossmt -workload apache -warmup 1000000 -cycles 2000000

# experiments regenerates EXPERIMENTS.md content (see cmd/experiments).
experiments:
	$(GO) run ./cmd/experiments
