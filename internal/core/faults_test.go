package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestOptionsValidate(t *testing.T) {
	if err := (Options{}).Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	bad := []Options{
		{Contexts: -1},
		{Clients: -5},
		{ServerProcesses: -1},
		{KeepAliveRequests: -3},
		{BufferCacheHitRate: -0.5},
		{BufferCacheHitRate: 1.5},
		{Faults: faults.Config{LossRate: 2}},
		{Faults: faults.Config{CrashRate: -1}},
		{AcceptBacklog: -1},
		{IdleTimeoutTicks: -2},
		{Faults: faults.Config{SlowClientRate: 2}},
		{Faults: faults.Config{StormClientRate: -0.1}},
		{Faults: faults.Config{TrickleTicks: -1}},
		{Faults: faults.Config{StormHoldTicks: -1}},
		{Faults: faults.Config{BurstEvery: -3}},
		{Faults: faults.Config{BurstSize: -1}},
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, o)
		}
	}
}

func TestConstructorsPanicOnInvalidOptions(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewApache accepted negative Clients")
		}
	}()
	NewApache(Options{Clients: -1})
}

func TestNewReturnsErrors(t *testing.T) {
	if _, err := New("apache", Options{Contexts: -1}); err == nil {
		t.Fatal("invalid options not rejected")
	}
	if _, err := New("minesweeper", Options{}); err == nil {
		t.Fatal("unknown workload not rejected")
	}
	sim, err := New("specint", Options{Seed: 1, CyclesPer10ms: 100_000})
	if err != nil || sim == nil || sim.Workload != "specint" {
		t.Fatalf("valid build failed: %v", err)
	}
}

// TestWatchdogDetectsLivelock: with an interrupt interval the run will never
// reach, every Apache worker blocks in accept once the start-up burst
// drains — no instruction ever retires again, and RunChecked must convert
// that into a structured LivelockError instead of spinning forever.
func TestWatchdogDetectsLivelock(t *testing.T) {
	sim := NewApache(Options{
		Seed:          1,
		CyclesPer10ms: 1 << 62, // network ticks never arrive
		Faults:        faults.Config{LivelockWindow: 150_000},
	})
	err := sim.RunChecked(context.Background(), 60_000_000)
	var ll *faults.LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("err = %v, want LivelockError", err)
	}
	if ll.Window != 150_000 {
		t.Fatalf("window = %d", ll.Window)
	}
	// Well before the full budget: the watchdog cut the run short.
	if sim.Engine.Now() >= 10_000_000 {
		t.Fatalf("watchdog let the livelock run to cycle %d", sim.Engine.Now())
	}
	for _, part := range []string{"pipeline:", "kernel:", "blocked="} {
		if !strings.Contains(ll.Diag, part) {
			t.Fatalf("diagnostics missing %q:\n%s", part, ll.Diag)
		}
	}
}

// TestWatchdogHonorsDeadline: a cancelled context surfaces as DeadlineError
// wrapping the context's cause.
func TestWatchdogHonorsDeadline(t *testing.T) {
	sim := NewApache(Options{Seed: 1, CyclesPer10ms: 100_000})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	err := sim.RunChecked(ctx, 50_000_000)
	var dl *faults.DeadlineError
	if !errors.As(err, &dl) {
		t.Fatalf("err = %v, want DeadlineError", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("DeadlineError does not unwrap to context.DeadlineExceeded")
	}
}

// TestRunCheckedCleanRun: a healthy simulation runs its full budget and
// returns nil.
func TestRunCheckedCleanRun(t *testing.T) {
	sim := NewApache(Options{Seed: 2, CyclesPer10ms: 80_000})
	if err := sim.RunChecked(context.Background(), 600_000); err != nil {
		t.Fatalf("healthy run failed: %v", err)
	}
	if sim.Engine.Now() != 600_000 {
		t.Fatalf("ran %d cycles, want 600000", sim.Engine.Now())
	}
	sim.Engine.CheckInvariants()
}

// TestFaultedRunCompletesWithRecovery is the acceptance scenario: a web run
// with 5% frame loss and 1% per-syscall worker crashes finishes without
// panicking, serves requests, and shows the recovery machinery at work.
func TestFaultedRunCompletesWithRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-million-cycle simulation")
	}
	sim := NewApache(Options{
		Seed:          3,
		CyclesPer10ms: 60_000,
		Faults:        faults.Config{LossRate: 0.05, CrashRate: 0.01},
	})
	if err := sim.RunChecked(context.Background(), 4_000_000); err != nil {
		t.Fatalf("faulted run failed: %v", err)
	}
	sim.Engine.CheckInvariants()
	if sim.Net.Completed == 0 {
		t.Fatal("no requests completed under faults")
	}
	if sim.Net.Retransmits == 0 {
		t.Fatal("no retransmits under 5% loss")
	}
	if sim.Faults.DroppedToServer+sim.Faults.DroppedToClient == 0 {
		t.Fatal("no frames dropped under 5% loss")
	}
	if sim.Kernel.WorkerCrashes == 0 || sim.Kernel.WorkerRespawns == 0 {
		t.Fatalf("crash/respawn idle: crashes=%d respawns=%d",
			sim.Kernel.WorkerCrashes, sim.Kernel.WorkerRespawns)
	}
	if sim.Kernel.WorkerRespawns != sim.Kernel.WorkerCrashes {
		t.Fatalf("respawns %d != crashes %d", sim.Kernel.WorkerRespawns, sim.Kernel.WorkerCrashes)
	}
	// Diagnostics render for a live (untripped) simulator too.
	d := sim.Diagnostics()
	if !strings.Contains(d, "faults:") || !strings.Contains(d, "net:") {
		t.Fatalf("diagnostics incomplete:\n%s", d)
	}
}

// TestFaultSeedIndependentOfConfigPresence: fault sampling must come from
// the injector's own streams — the same simulation seed with faults off is
// still deterministic (covered elsewhere), and with faults on, two identical
// configs make identical injections.
func TestFaultSeedIndependentOfConfigPresence(t *testing.T) {
	build := func() *Simulator {
		return NewApache(Options{
			Seed:          4,
			CyclesPer10ms: 60_000,
			Faults:        faults.Config{LossRate: 0.1, CrashRate: 0.005},
		})
	}
	a, b := build(), build()
	a.Run(900_000)
	b.Run(900_000)
	if a.Faults.DroppedToServer != b.Faults.DroppedToServer ||
		a.Faults.DroppedToClient != b.Faults.DroppedToClient ||
		a.Faults.Crashes != b.Faults.Crashes {
		t.Fatalf("identical fault runs diverged: a=%+v b=%+v", a.Faults, b.Faults)
	}
	if a.Kernel.WorkerCrashes != b.Kernel.WorkerCrashes ||
		a.Net.Retransmits != b.Net.Retransmits ||
		a.Engine.Metrics.Retired != b.Engine.Metrics.Retired {
		t.Fatalf("identical fault runs diverged: retired %d vs %d",
			a.Engine.Metrics.Retired, b.Engine.Metrics.Retired)
	}
}

// TestComposedFaultDomainsStaySane: all three fault domains at once — frame
// loss, worker crashes, and the overload client mix — across multiple seeds.
// Each run must finish under the watchdog with every domain demonstrably
// active, and an identically-configured twin must match counter-for-counter:
// composing fault domains must not introduce nondeterminism or livelock.
func TestComposedFaultDomainsStaySane(t *testing.T) {
	if testing.Short() {
		t.Skip("several multi-million-cycle simulations")
	}
	for _, seed := range []uint64{5, 9} {
		build := func() *Simulator {
			return NewApache(Options{
				Seed:             seed,
				CyclesPer10ms:    60_000,
				Clients:          96,
				AcceptBacklog:    16,
				IdleTimeoutTicks: 4,
				Faults: faults.Config{
					LossRate:        0.05,
					CrashRate:       0.01,
					SlowClientRate:  0.15,
					TrickleTicks:    2,
					StormClientRate: 0.15,
					StormHoldTicks:  6,
					BurstEvery:      4,
					BurstSize:       8,
				},
			})
		}
		a, b := build(), build()
		for _, sim := range []*Simulator{a, b} {
			if err := sim.RunChecked(context.Background(), 4_000_000); err != nil {
				t.Fatalf("seed %d: composed-fault run tripped: %v", seed, err)
			}
		}
		// Every domain active: loss...
		if a.Faults.DroppedToServer+a.Faults.DroppedToClient == 0 || a.Net.Retransmits == 0 {
			t.Fatalf("seed %d: loss domain idle", seed)
		}
		// ...crashes...
		if a.Kernel.WorkerCrashes == 0 || a.Kernel.WorkerRespawns != a.Kernel.WorkerCrashes {
			t.Fatalf("seed %d: crash domain idle or unbalanced: crashes=%d respawns=%d",
				seed, a.Kernel.WorkerCrashes, a.Kernel.WorkerRespawns)
		}
		// ...and overload: shedding machinery engaged, yet work still completes.
		if a.Kernel.ConnsRefused+a.Kernel.ReapedIdle+a.Kernel.ReapedSlowloris == 0 {
			t.Fatalf("seed %d: overload domain idle (refused=%d idle=%d slow=%d)",
				seed, a.Kernel.ConnsRefused, a.Kernel.ReapedIdle, a.Kernel.ReapedSlowloris)
		}
		if a.Net.Completed == 0 || a.Net.Latency.Count == 0 {
			t.Fatalf("seed %d: nothing completed under composed faults", seed)
		}
		// The twin matches bit-for-bit across all three domains.
		if a.Faults.DroppedToServer != b.Faults.DroppedToServer ||
			a.Kernel.WorkerCrashes != b.Kernel.WorkerCrashes ||
			a.Kernel.ConnsRefused != b.Kernel.ConnsRefused ||
			a.Kernel.ReapedIdle != b.Kernel.ReapedIdle ||
			a.Kernel.ReapedSlowloris != b.Kernel.ReapedSlowloris ||
			a.Net.Completed != b.Net.Completed ||
			a.Net.Latency != b.Net.Latency ||
			a.Engine.Metrics.Retired != b.Engine.Metrics.Retired {
			t.Fatalf("seed %d: composed-fault twins diverged", seed)
		}
		a.Engine.CheckInvariants()
	}
}
