package netsim

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/flatmap"
	"repro/internal/kernel"
)

// TestClientSize pins the client record's size: a 10^6-client fleet keeps
// a million of them live.
func TestClientSize(t *testing.T) {
	if n := unsafe.Sizeof(client{}); n > 32 {
		t.Fatalf("netsim.client is %d bytes, want at most 32", n)
	}
}

// TestFleetHeapPerClient pins the fleet's host heap: a fresh 100k-client
// network, its client records and its wheel, takes at most 56 bytes per
// client.
func TestFleetHeapPerClient(t *testing.T) {
	const clients = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	n := New(Config{Clients: clients, Seed: 7, RequestBytes: 300, ThinkTicks: 40, StaggerTicks: 10_000})
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(n)
	if per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / clients; per > 56 {
		t.Fatalf("a %d-client network takes %.1f heap bytes per client, want at most 56", clients, per)
	}
}

// TestDemuxSizedToLiveConns requires the conn→client and conn→file-size
// tables to be laid out for the connections in use, not for the fleet:
// empty on a fresh 100k-client network, and after a restore sized as a
// fresh table holding the restored entries would be.
func TestDemuxSizedToLiveConns(t *testing.T) {
	sc := scenario{cfg: Config{
		Clients: 100_000, Seed: 7, RequestBytes: 300, ThinkTicks: 40, StaggerTicks: 10_000,
	}}
	n := buildNet(sc, false)
	empty := flatmap.New(0).Buckets()
	if c, f := n.connClient.Buckets(), n.files.Buckets(); c != empty || f != empty {
		t.Fatalf("fresh network: demux tables have %d and %d buckets, want %d", c, f, empty)
	}
	srv := newFakeServer(n, 0)
	for tick := 1; tick <= 30; tick++ {
		srv.step(append([]kernel.Frame{}, n.Tick(uint64(tick))...))
	}
	live := n.connClient.Len()
	if live == 0 || live > 1000 || n.Completed == 0 {
		t.Fatalf("%d live connections and %d completions; want a few hundred and some", live, n.Completed)
	}
	r := restoreNet(t, sc, n)
	if got := r.connClient.Len(); got != live {
		t.Fatalf("restored conn→client table holds %d entries, want %d", got, live)
	}
	if got, want := r.connClient.Buckets(), flatmap.New(live).Buckets(); got != want {
		t.Fatalf("restored conn→client table has %d buckets for %d connections, want %d", got, live, want)
	}
	if got, want := r.files.Buckets(), flatmap.New(r.files.Len()).Buckets(); got != want {
		t.Fatalf("restored conn→file-size table has %d buckets for %d entries, want %d", got, r.files.Len(), want)
	}
}

// TestConfigValidate rejects values the client record's int32 fields
// cannot hold, naming the field.
func TestConfigValidate(t *testing.T) {
	if math.MaxInt == math.MaxInt32 {
		t.Skip("int is 32 bits: every int fits int32")
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	big := math.MaxInt32
	big++
	for _, tc := range []struct {
		field string
		cfg   Config
	}{
		{"RequestBytes", Config{Clients: 4, RequestBytes: big}},
		{"RequestsPerConn", Config{Clients: 4, RequestsPerConn: big}},
		{"Clients+BurstPool", Config{Clients: big - 4, BurstPool: 4}},
	} {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Validate(%s = %d) = %v, want an error naming %s", tc.field, big, err, tc.field)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a RequestBytes that does not fit int32")
		}
	}()
	New(Config{Clients: 4, RequestBytes: big})
}

// TestSortIndexes checks the fired-batch sort against slices.Sort on
// distinct indexes below bounds of one to many radix passes, in batches
// of every digit width up to maxRadixBits and beyond.
func TestSortIndexes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var scratch []int32
	for _, max := range []int32{100, 1<<maxRadixBits - 1, 1 << maxRadixBits, 1_000_000, 1 << 23, math.MaxInt32} {
		for _, k := range []int{0, 1, 2, 3, 64, 127, 300, 1024, 2047, 3000} {
			if int64(k) > int64(max)+1 {
				continue
			}
			seen := map[int32]bool{}
			ids := make([]int32, 0, k)
			for len(ids) < k {
				v := int32(rng.Int63n(int64(max) + 1))
				if !seen[v] {
					seen[v] = true
					ids = append(ids, v)
				}
			}
			want := slices.Clone(ids)
			slices.Sort(want)
			sortIndexes(ids, max, &scratch)
			if !slices.Equal(ids, want) {
				t.Fatalf("max %d, %d ids: sorted to %v", max, k, ids)
			}
		}
	}
}
