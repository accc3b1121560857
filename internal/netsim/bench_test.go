package netsim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/kernel"
)

// BenchmarkFleetRestore loads the checkpoint section of a 10^6-client
// fleet into a live network of the same size, as each apache-fleet op's
// RestoreInto does. The fleet is ablation-scale's 1m row (think time and
// start stagger of clients/32 ticks) after 400 ticks against the test
// server, so about a hundred clients hold a request when it is saved.
func BenchmarkFleetRestore(b *testing.B) {
	const clients = 1_000_000
	cfg := Config{
		Clients: clients, Seed: 1, RequestBytes: 300,
		ThinkTicks: clients / 32, StaggerTicks: clients / 32, MeasureLatency: true,
	}
	n := New(cfg)
	srv := newFakeServer(n, 0)
	for tick := 1; tick <= 400; tick++ {
		srv.step(append([]kernel.Frame{}, n.Tick(uint64(tick))...))
	}
	var e checkpoint.Codec
	n.Sync(&e)
	section := e.Bytes()
	live := New(cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := checkpoint.NewReader("netsim", section)
		live.Sync(&d)
		if err := d.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortIndexes sorts fired batches of a 10^6-client fleet at the
// sizes measured per tick on simbench apache-fleet (64) and on
// BenchmarkNetTick1M (1536), with sortIndexes and with slices.Sort.
func BenchmarkSortIndexes(b *testing.B) {
	const max = 999_999
	for _, k := range []int{64, 1536} {
		batch := make([]int32, k)
		for i, v := range rand.New(rand.NewSource(1)).Perm(max + 1)[:k] {
			batch[i] = int32(v)
		}
		ids := make([]int32, k)
		var scratch []int32
		sorts := []struct {
			name string
			sort func()
		}{
			{"radix", func() { sortIndexes(ids, max, &scratch) }},
			{"slices.Sort", func() { slices.Sort(ids) }},
		}
		for _, s := range sorts {
			b.Run(fmt.Sprintf("n=%d/%s", k, s.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					copy(ids, batch)
					s.sort()
				}
			})
		}
	}
}
