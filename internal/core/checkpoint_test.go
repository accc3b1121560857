// Golden checkpoint/restore tests: the bit-identity guarantee, corruption
// handling, and the invariant auditor's detection of seeded state damage.
package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/audit"
	"repro/internal/checkpoint"
	"repro/internal/conflict"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/report"
)

// goldenCase asserts the golden guarantee: run N cycles, checkpoint to a
// file, restore in a fresh simulator, run M more — every counter in the
// final report is identical to a straight N+M run.
func goldenCase(t *testing.T, workloadName string, o core.Options, n, m uint64) {
	t.Helper()

	ref, err := core.New(workloadName, o)
	if err != nil {
		t.Fatalf("building reference: %v", err)
	}
	ref.Run(n + m)
	want := report.Take(ref)

	sim, err := core.New(workloadName, o)
	if err != nil {
		t.Fatalf("building checkpointed run: %v", err)
	}
	sim.Run(n)
	path := filepath.Join(t.TempDir(), "state.ckpt")
	if err := sim.WriteCheckpoint(path); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}

	restored, err := core.RestoreFile(path)
	if err != nil {
		t.Fatalf("RestoreFile: %v", err)
	}
	if got := restored.Now(); got != n {
		t.Fatalf("restored at cycle %d, checkpointed at %d", got, n)
	}
	restored.Run(m)
	got := report.Take(restored)

	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored run diverged from straight run\nstraight: retired=%d cycles=%d switches=%d netdone=%d\nrestored: retired=%d cycles=%d switches=%d netdone=%d\nfull diff: %s",
			want.Metrics.Retired, want.Cycles, want.ContextSwitches, want.NetCompleted,
			got.Metrics.Retired, got.Cycles, got.ContextSwitches, got.NetCompleted,
			diffFields(want, got))
	}
}

// diffFields names the top-level Snapshot fields that differ, so a
// divergence report points at the guilty subsystem.
func diffFields(a, b report.Snapshot) string {
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	var bad []string
	for i := 0; i < av.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			bad = append(bad, av.Type().Field(i).Name)
		}
	}
	return strings.Join(bad, ", ")
}

func TestCheckpointGoldenApacheSMT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	for _, seed := range []uint64{1, 5} {
		o := core.Options{Processor: core.SMT, Seed: seed, CyclesPer10ms: 100_000}
		goldenCase(t, "apache", o, 700_000, 500_000)
	}
}

func TestCheckpointGoldenApacheSuperscalar(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	o := core.Options{Processor: core.Superscalar, Seed: 1, CyclesPer10ms: 100_000}
	goldenCase(t, "apache", o, 700_000, 500_000)
}

func TestCheckpointGoldenSPECInt(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	goldenCase(t, "specint", core.Options{Processor: core.SMT, Seed: 3, CyclesPer10ms: 200_000}, 500_000, 400_000)
	goldenCase(t, "specint", core.Options{Processor: core.Superscalar, Seed: 7, CyclesPer10ms: 200_000}, 400_000, 300_000)
}

func TestCheckpointGoldenWithFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	// Fault injection exercises the respawn path, the injector RNGs, and
	// delayed frames in transit — all of which must survive a checkpoint.
	o := core.Options{
		Processor:     core.SMT,
		Seed:          11,
		CyclesPer10ms: 100_000,
		Faults:        faults.Config{LossRate: 0.05, CrashRate: 0.01},
	}
	goldenCase(t, "apache", o, 900_000, 600_000)
}

// TestCheckpointGoldenMidOverload: the golden guarantee while the server is
// actively shedding — checkpoint taken with refused connections on the books,
// armed idle timers, live backlog entries, and a partially-filled latency
// histogram, then restored and run on. A probe twin first proves the
// checkpoint cycle really lands mid-overload and the new audit checks pass
// on that state.
func TestCheckpointGoldenMidOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	o := core.Options{
		Processor:         core.SMT,
		Seed:              13,
		CyclesPer10ms:     40_000,
		Clients:           128,
		ServerProcesses:   16,
		KeepAliveRequests: 4,
		AcceptBacklog:     4,
		IdleTimeoutTicks:  3,
		Faults: faults.Config{
			SlowClientRate:  0.2,
			TrickleTicks:    2,
			StormClientRate: 0.2,
			StormHoldTicks:  5,
			BurstEvery:      3,
			BurstSize:       24,
		},
	}
	const n, m = 900_000, 600_000

	probe, err := core.New("apache", o)
	if err != nil {
		t.Fatal(err)
	}
	probe.Run(n)
	w := report.Take(probe)
	if w.ConnsRefused == 0 {
		t.Fatalf("checkpoint cycle not mid-overload: no refused connections (reaps idle=%d slow=%d)",
			w.ReapedIdle, w.ReapedSlowloris)
	}
	if w.ReapedIdle+w.ReapedSlowloris == 0 {
		t.Fatal("checkpoint cycle not mid-overload: idle reaper never fired")
	}
	if w.Latency.Count == 0 {
		t.Fatal("checkpoint cycle not mid-overload: latency histogram empty")
	}
	if err := probe.Audit(); err != nil {
		t.Fatalf("audit of mid-overload state failed: %v", err)
	}

	goldenCase(t, "apache", o, n, m)
}

// TestCheckpointGoldenMidExhaustion: the golden guarantee while the kernel is
// actively short on everything — checkpoint taken with the page reclaimer
// running (staged evictions, second-chance bits, per-process RSS under a
// squeezed frame limit) and finite pools rejecting work, then restored and
// run on. A probe twin first proves the checkpoint cycle really lands
// mid-exhaustion and the resource-accounting audit passes on that state.
func TestCheckpointGoldenMidExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	o := core.Options{
		Processor:         core.SMT,
		Seed:              17,
		CyclesPer10ms:     40_000,
		Clients:           96,
		ServerProcesses:   16,
		KeepAliveRequests: 4,
		IdleTimeoutTicks:  3,
		MemFrameLimit:     1600,
		SocketTable:       24,
		MbufPool:          16,
		FDLimit:           2,
		Faults: faults.Config{
			MemSqueezeFrac:  0.25,
			PoolSqueezeFrac: 0.25,
			SqueezeAtTick:   1,
		},
	}
	const n, m = 900_000, 600_000

	probe, err := core.New("apache", o)
	if err != nil {
		t.Fatal(err)
	}
	probe.Run(n)
	w := report.Take(probe)
	if w.MemReclaims == 0 {
		t.Fatalf("checkpoint cycle not mid-exhaustion: reclaimer never ran (frames peak %d, limit %d)",
			w.FramesHighwater, w.MemFrameLimit)
	}
	if w.SockPoolRejects+w.MbufDrops+w.FDRejects+w.ForkRejects == 0 {
		t.Fatal("checkpoint cycle not mid-exhaustion: no pool ever rejected work")
	}
	if w.Squeezes != 1 {
		t.Fatalf("exhaustion squeeze fired %d time(s), want exactly 1", w.Squeezes)
	}
	if err := probe.Audit(); err != nil {
		t.Fatalf("audit of mid-exhaustion state failed: %v", err)
	}

	goldenCase(t, "apache", o, n, m)
}

func TestCheckpointRejectsWorkloadMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	o := core.Options{Processor: core.SMT, Seed: 1, CyclesPer10ms: 200_000}
	web := core.NewApache(o)
	web.Run(100_000)
	img, err := web.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	spec := core.NewSPECInt(o)
	if err := spec.RestoreInto(img); err == nil {
		t.Fatal("restoring an apache checkpoint into a specint simulator succeeded")
	}
}

func TestCheckpointCorruptionIsStructuredError(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	o := core.Options{Processor: core.SMT, Seed: 2, CyclesPer10ms: 100_000}
	sim := core.NewApache(o)
	sim.Run(300_000)
	dir := t.TempDir()
	path := filepath.Join(dir, "good.ckpt")
	if err := sim.WriteCheckpoint(path); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		data []byte
	}{
		{"truncated", raw[:len(raw)/3]},
		{"empty", nil},
		{"bad-magic", append([]byte("NOTACKPT"), raw[8:]...)},
		{"bit-flip", flipByte(raw, len(raw)/2)},
		{"flipped-crc", flipByte(raw, len(raw)-2)},
		{"garbage", []byte("not a checkpoint at all")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := filepath.Join(dir, tc.name)
			if err := os.WriteFile(p, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			// Must return *checkpoint.FormatError — and never panic.
			_, err := core.RestoreFile(p)
			var ferr *checkpoint.FormatError
			if !errors.As(err, &ferr) {
				t.Fatalf("got %T (%v), want *checkpoint.FormatError", err, err)
			}
		})
	}

	t.Run("missing-section", func(t *testing.T) {
		img, err := sim.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		// An image with only the meta section: the machine rebuilds, but
		// the state sections are gone.
		var meta core.Meta
		if err := img.Get("meta", meta.Load); err != nil {
			t.Fatal(err)
		}
		stripped := checkpoint.NewImage()
		stripped.Put("meta", meta.Save)
		_, err = core.Restore(stripped)
		var ferr *checkpoint.FormatError
		if !errors.As(err, &ferr) {
			t.Fatalf("got %T (%v), want *checkpoint.FormatError for missing section", err, err)
		}
	})
}

func flipByte(raw []byte, i int) []byte {
	out := append([]byte(nil), raw...)
	out[i] ^= 0x40
	return out
}

// auditFinding runs the auditor and requires a violation from the named
// check.
func auditFinding(t *testing.T, sim *core.Simulator, check string) {
	t.Helper()
	err := sim.Audit()
	if err == nil {
		t.Fatalf("audit clean, wanted a %q finding", check)
	}
	var aerr *audit.Error
	if !errors.As(err, &aerr) {
		t.Fatalf("got %T (%v), want *audit.Error", err, err)
	}
	for _, f := range aerr.Findings {
		if f.Check == check {
			return
		}
	}
	t.Fatalf("no %q finding in: %v", check, aerr)
}

func TestAuditorCleanOnHealthyRun(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	sim := core.NewApache(core.Options{Processor: core.SMT, Seed: 4, CyclesPer10ms: 100_000})
	sim.Run(1_000_000)
	if err := sim.Audit(); err != nil {
		t.Fatalf("audit of a healthy run found violations: %v", err)
	}
}

func TestAuditorCatchesLeakedPage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	sim := core.NewApache(core.Options{Processor: core.SMT, Seed: 4, CyclesPer10ms: 100_000})
	sim.Run(300_000)
	// Seed the corruption: map a page for a process ID no thread owns, as
	// if an exited process's address space had not been released.
	sim.Kernel.Mem.Touch(77_777, 0x4000_0000)
	auditFinding(t, sim, "page-ownership")
}

func TestAuditorCatchesStaleTLB(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	sim := core.NewApache(core.Options{Processor: core.SMT, Seed: 4, CyclesPer10ms: 100_000})
	sim.Run(300_000)
	// Seed the corruption: a DTLB entry under an ASN no live thread owns —
	// the signature of a missed invalidation on exit/recycle.
	sim.Engine.DTLB.Insert(4095, 0x4000_2000, 0x1_2000, conflict.Agent{TID: 1})
	auditFinding(t, sim, "tlb-consistency")
}

func TestAuditorCatchesOrphanSocket(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	sim := core.NewApache(core.Options{Processor: core.SMT, Seed: 4, CyclesPer10ms: 100_000})
	sim.Run(1_000_000)
	// Seed the corruption and carry it through the checkpoint path: give
	// one open socket an owner thread ID that does not exist, as if a
	// crashed worker's descriptors had not been reaped, then checkpoint and
	// restore (a restore tolerates the orphan and leaves it to the auditor).
	seeded := false
	for _, s := range sim.Kernel.SocketInfos() {
		if !s.Closed && !s.Listen && s.Owner != 0 {
			seeded = sim.Kernel.SetSocketOwner(s.ID, 60_000)
			break
		}
	}
	if !seeded {
		t.Skip("no open owned socket at this cycle; adjust run length")
	}
	img, err := sim.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RestoreInto(img); err != nil {
		t.Fatalf("RestoreInto: %v", err)
	}
	auditFinding(t, sim, "socket-ownership")
}

func TestWriteCheckpointRefusesInconsistentState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-hundred-kilocycle simulation")
	}
	sim := core.NewApache(core.Options{Processor: core.SMT, Seed: 4, CyclesPer10ms: 100_000})
	sim.Run(300_000)
	sim.Kernel.Mem.Touch(77_777, 0x4000_0000)
	path := filepath.Join(t.TempDir(), "bad.ckpt")
	err := sim.WriteCheckpoint(path)
	var aerr *audit.Error
	if !errors.As(err, &aerr) {
		t.Fatalf("got %T (%v), want wrapped *audit.Error", err, err)
	}
	if _, statErr := os.Stat(path); statErr == nil {
		t.Fatal("checkpoint file written despite failed audit")
	}
}

func TestOptionsValidateLimits(t *testing.T) {
	cases := []struct {
		name string
		o    core.Options
		ok   bool
	}{
		{"default", core.Options{}, true},
		{"max-contexts", core.Options{Contexts: core.MaxContexts}, true},
		{"too-many-contexts", core.Options{Contexts: core.MaxContexts + 1}, false},
		{"way-too-many-contexts", core.Options{Contexts: 64}, false},
		{"negative-contexts", core.Options{Contexts: -1}, false},
		{"tick-zero-default", core.Options{CyclesPer10ms: 0}, true},
		{"tick-below-depth", core.Options{CyclesPer10ms: 3}, false},
		{"tick-below-depth-superscalar", core.Options{Processor: core.Superscalar, CyclesPer10ms: 3}, false},
		{"tick-reasonable", core.Options{CyclesPer10ms: 100_000}, true},
		{"negative-clients", core.Options{Clients: -2}, false},
		{"bad-hit-rate", core.Options{BufferCacheHitRate: 1.5}, false},
		{"sampling-defaults", core.Options{Sampling: core.Sampling{Period: 100_000}}, true},
		{"sampling-explicit", core.Options{Sampling: core.Sampling{Period: 50_000, DetailWindow: 5_000, Warmup: 2_000}}, true},
		{"sampling-period-too-small", core.Options{Sampling: core.Sampling{Period: 5}}, false},
		{"sampling-no-ff-room", core.Options{Sampling: core.Sampling{Period: 10_000, DetailWindow: 8_000, Warmup: 2_000}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.o.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() = nil, want error")
			}
		})
	}
}
