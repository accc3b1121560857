// Package repro is a from-scratch Go reproduction of "An Analysis of
// Operating System Behavior on a Simultaneous Multithreaded Architecture"
// (Redstone, Eggers, Levy — ASPLOS 2000): a cycle-level SMT/superscalar
// simulator, a behavioral Digital Unix 4.0d kernel model, the
// multiprogrammed SPECInt95 and Apache/SPECWeb96 workloads, and a harness
// that regenerates every table and figure of the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results. The
// benchmarks in bench_test.go measure host performance only (simulator
// throughput, warm figure regeneration, the netsim tick); agreement with
// the paper is internal/experiments' TestFidelity:
//
//	go test -run '^$' -bench . -benchtime 1x -count 5
package repro
