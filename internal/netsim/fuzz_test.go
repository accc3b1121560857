package netsim

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/faults"
	"repro/internal/kernel"
)

// fuzzScenario builds a scenario from fuzz inputs: a fleet of 1–2048
// clients (plus a dormant pool when bursts are on), think time, keep-alive
// depth and start stagger (both from perConn), server-side closes, and a
// mix of wire faults and overload behaviors, one per bit of mix.
func fuzzScenario(clients uint16, seed uint64, mix, think, perConn uint8, closeMod uint16, ticks uint16) scenario {
	sc := scenario{
		name: "fuzz",
		cfg: Config{
			Clients:         1 + int(clients%2048),
			Seed:            seed,
			RequestBytes:    300,
			ThinkTicks:      int(think % 32),
			RequestsPerConn: 1 + int(perConn%6),
			StaggerTicks:    int(perConn / 6 % 8 * 10),
		},
		ticks: 1 + int(ticks%400),
	}
	if closeMod != 0 {
		sc.serverCloseMod = 20 + uint64(closeMod%1000)
	}
	if mix == 0 {
		return sc
	}
	f := faults.Config{Seed: seed ^ 0xf0f0}
	if mix&1 != 0 {
		f.LossRate = 0.03
	}
	if mix&2 != 0 {
		f.CorruptRate = 0.02
	}
	if mix&4 != 0 {
		f.DelayRate, f.MaxDelayTicks = 0.08, 1+int(mix>>6)
	}
	if mix&8 != 0 {
		f.SlowClientRate, f.TrickleTicks = 0.1, 3
	}
	if mix&16 != 0 {
		f.StormClientRate, f.StormHoldTicks = 0.1, 12
	}
	if mix&32 != 0 {
		f.BurstEvery, f.BurstSize = 10, 8
		sc.cfg.BurstPool = 32
	}
	sc.faults = f
	return sc
}

// FuzzNetsimDrivers runs the event-driven and reference full-scan drivers
// side by side over a generated fleet and fault mix: every tick's frames
// must match, and so must their checkpoint sections at the snapshot tick
// and at the end. At the snapshot tick the event-driven network is also
// saved, restored into a fresh network (save→load→save must round-trip)
// and continued in its place, so the rebuilt wheel, dormant heap, demux
// tables and request records must drive the rest of the run identically.
func FuzzNetsimDrivers(f *testing.F) {
	f.Add(uint16(127), uint64(99), uint8(0), uint8(0), uint8(0), uint16(0), uint16(300), uint16(150))
	f.Add(uint16(127), uint64(5), uint8(7), uint8(2), uint8(0), uint16(480), uint16(399), uint16(200))
	f.Add(uint16(191), uint64(8), uint8(63), uint8(3), uint8(3), uint16(230), uint16(399), uint16(120))
	f.Add(uint16(999), uint64(21), uint8(1), uint8(20), uint8(42), uint16(0), uint16(250), uint16(60))
	f.Fuzz(func(t *testing.T, clients uint16, seed uint64, mix, think, perConn uint8, closeMod, ticks, snapAt uint16) {
		sc := fuzzScenario(clients, seed, mix, think, perConn, closeMod, ticks)
		snap := 1 + int(snapAt)%sc.ticks
		ev, rf := buildNet(sc, false), buildNet(sc, true)
		evSrv, rfSrv := newFakeServer(ev, sc.serverCloseMod), newFakeServer(rf, sc.serverCloseMod)
		for tick := 1; tick <= sc.ticks; tick++ {
			a, b := ev.Tick(uint64(tick)), rf.Tick(uint64(tick))
			if !slices.Equal(a, b) {
				t.Fatalf("tick %d: frame streams diverge\nevent:     %v\nreference: %v", tick, a, b)
			}
			evSrv.step(append([]kernel.Frame{}, a...))
			rfSrv.step(append([]kernel.Frame{}, b...))
			if tick != snap {
				continue
			}
			if !bytes.Equal(snapBytes(t, ev), snapBytes(t, rf)) {
				t.Fatalf("tick %d: serialized state diverges between drivers", tick)
			}
			ev = restoreNet(t, sc, ev)
			ev.SetReferenceScan(false)
			evSrv = evSrv.clone(ev)
		}
		if !bytes.Equal(snapBytes(t, ev), snapBytes(t, rf)) {
			t.Fatal("final serialized state diverges between drivers")
		}
		checkRequestRecords(t, ev)
		checkRequestRecords(t, rf)
	})
}
