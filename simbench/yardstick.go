package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// yardstick is a fixed amount of host work that runs no simulator code.
// It is timed before every op and every set-up, and the end-to-end times
// are reported at the yardstick's reference speed: a measured time is
// scaled by yardstickRefMs over the median of the yardstick times taken
// around it. The benchmark's host, a shared VM, has fast and slow phases:
// in a slow one, which can last an hour, the simulator's ops take 1.5–2.5x
// as long and vary by ±10–20% instead of ±1% (the process's CPU time moves
// with its wall time, so this is throughput, not descheduling). The
// yardstick slows with the host, while a change to the simulator moves
// only the op.
//
// Its work resembles the simulator's: loads, data-dependent branches that
// mispredict and dependent stores, first over a table that fits in the
// private caches (the pipeline's and caches' structures), then over one
// that does not (the simulator's heap is 80–800 MiB). Timed separately
// from a fast into a slow phase, apache-smt's op slowed 2.2x, a sweep of
// the small table 1.9x and of the large one 2.3x, so the two together
// about 2.2x; a pointer chase through 64 MiB varied by 1.8x even within a
// fast phase, so there is none. The tables are refilled from a fixed seed
// at the start of every call, so every call does the same work. They are
// mapped outside the Go heap, so they change neither the live heap the
// benchmark reports nor the garbage collector's pacing.
type yardstick struct {
	mem          []byte
	small, large []uint64
}

// Sizes of the yardstick's work: a 512 KiB table swept yardSmallRounds
// times and a 32 MiB one swept yardLargeRounds times, about 85 ms per call
// in a fast phase of the reference host (estimated from the two sweeps,
// timed separately there).
const (
	yardSmallEntries = 64 << 10
	yardSmallRounds  = 128
	yardLargeEntries = 4 << 20
	yardLargeRounds  = 2
)

// yardstickRefMs is one yardstick call's time on the host the benchmark
// was tuned on (a 2-vCPU Intel Xeon VM, Go 1.24, GOMAXPROCS=1) in a fast
// phase, as estimated above. Reported times are scaled to it, so they
// read as milliseconds on that host at that speed.
const yardstickRefMs = 85.0

func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, (yardSmallEntries+yardLargeEntries)*8,
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), yardSmallEntries+yardLargeEntries)
	return &yardstick{mem: mem, small: all[:yardSmallEntries], large: all[yardSmallEntries:]}, nil
}

// close unmaps the yardstick's tables.
func (y *yardstick) close() { syscall.Munmap(y.mem) }

// yardSink keeps the yardstick's result live so its work is not
// optimized away.
var yardSink uint64

// run does the yardstick's work once and returns how long it took.
func (y *yardstick) run() time.Duration {
	t0 := time.Now()
	acc := sweep(y.small, yardSmallRounds, 1)
	acc = sweep(y.large, yardLargeRounds, acc)
	yardSink += acc
	return time.Since(t0)
}

// sweep refills t (a power-of-two length) from a fixed seed, then sweeps
// it rounds times: each entry is loaded, steers a branch that goes either
// way at random, and is folded into an entry elsewhere in the table.
func sweep(t []uint64, rounds int, acc uint64) uint64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		t[i] = x
	}
	mask := uint64(len(t) - 1)
	for r := 0; r < rounds; r++ {
		for i := range t {
			v := t[i] ^ acc
			if v&1 == 0 {
				acc += v >> 3
			} else {
				acc ^= v << 1
			}
			t[(v>>7)&mask] += acc
		}
	}
	return acc
}
