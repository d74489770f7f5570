package cluster

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
	"testing"
	"time"

	"liveupdate/internal/collective"
	"liveupdate/internal/core"
	"liveupdate/internal/trace"
)

// pinnedSync is the sync ledger and merged-state witness a fixed trace
// produces. Every field is a deterministic function of the seed.
type pinnedSync struct {
	syncs                      int
	syncBytes, syncWireBytes   int64
	compute, publish, compress float64
	fingerprint                uint64
}

// runPinnedSync serves a fixed 600-request trace on a 3-replica fleet with
// periodic syncs every 50ms of virtual time, plus a manual SyncNow halfway
// and another at the end, and returns the final fleet statistics together
// with the cluster (replicas consistent after the trailing SyncNow).
func runPinnedSync(t *testing.T, cfg Config) (*Cluster, core.Stats) {
	t.Helper()
	cfg.SyncEvery = 50 * time.Millisecond
	// Usage-based pruning evicts rows locally, outside any sync support, so
	// it would leave the members apart after a merge; keep it out of the
	// window this trace covers.
	cfg.Base.LoRA.AdaptInterval = 1 << 20
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := trace.MustNewGenerator(testProfile(t), 71)
	for i := 0; i < 600; i++ {
		if _, err := c.Serve(gen.Next()); err != nil {
			t.Fatal(err)
		}
		if i == 299 {
			if _, err := c.SyncNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.SyncNow(); err != nil {
		t.Fatal(err)
	}
	return c, c.Stats()
}

// effectiveFingerprint hashes the effective rows (base + LoRA delta) of the
// first idsPerTable ids of every table on replica slot 0.
func effectiveFingerprint(c *Cluster, idsPerTable int) uint64 {
	p := c.cfg.Base.Profile
	h := fnv.New64a()
	row := make([]float64, p.EmbeddingDim)
	var buf [8]byte
	sys := c.Replica(0)
	for table := 0; table < p.NumTables; table++ {
		for id := int32(0); id < int32(idsPerTable); id++ {
			sys.LoRA.EffectiveRow(table, id, row)
			for _, v := range row {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return h.Sum64()
}

// TestSyncResultsPinned fixes the barrier-mode sync ledger and merged state
// of a fixed trace as literals, so any change to the sync path — snapshot,
// merge, pricing, publish — that alters a result fails here. The literals
// were recorded on amd64, where Go never fuses a multiply-add; elsewhere the
// float seconds are compared to a relative 1e-12.
func TestSyncResultsPinned(t *testing.T) {
	cases := []struct {
		name string
		tune func(*Config)
		want pinnedSync
	}{
		{"flat", func(*Config) {},
			pinnedSync{20, 213624, 924864, 0.0400181728, 0.04001947072, 0, 0x5de93d4eba856db9}},
		{"tree-delta-z6", func(cfg *Config) {
			cfg.Topology = collective.TopologyTree
			cfg.DeltaSync = true
			cfg.Compression = 6
		}, pinnedSync{20, 213624, 460208, 0.04001840832, 0.04001840832, 0.00502974, 0x5de93d4eba856db9}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, 3)
			cfg.Mode = SyncBarrier
			tc.tune(&cfg)
			c, st := runPinnedSync(t, cfg)
			if !c.ReplicasConsistent(50) {
				t.Fatal("replicas must agree after the trailing SyncNow")
			}
			got := pinnedSync{
				syncs:         st.Syncs,
				syncBytes:     st.SyncBytes,
				syncWireBytes: st.SyncWireBytes,
				compute:       st.SyncComputeSeconds,
				publish:       st.SyncPublishSeconds,
				compress:      st.SyncCompressSeconds,
				fingerprint:   effectiveFingerprint(c, 50),
			}
			if runtime.GOARCH != "amd64" {
				for _, p := range []struct{ got, want *float64 }{
					{&got.compute, &tc.want.compute},
					{&got.publish, &tc.want.publish},
					{&got.compress, &tc.want.compress},
				} {
					if math.Abs(*p.got-*p.want) <= 1e-12*math.Abs(*p.want) {
						*p.got = *p.want
					}
				}
			}
			if got != tc.want {
				t.Fatalf("sync results drifted\n got  %#v\n want %#v", got, tc.want)
			}
		})
	}
}

// TestAsyncSyncVirtualStatsPinned fixes the async-mode sync count and the
// virtual-time statistics of the same trace. Async adapter values depend on
// wall-clock interleaving, so only what the determinism contract covers is
// pinned.
func TestAsyncSyncVirtualStatsPinned(t *testing.T) {
	type pinnedVirtual struct {
		syncs                 int
		served, violations    uint64
		trainSteps            uint64
		virtualTime, p50, p99 float64
	}
	want := pinnedVirtual{20, 600, 0, 150, 0.9418800333139631, 0.004290000108657109, 0.004750000369044938}
	cfg := testConfig(t, 3)
	cfg.Mode = SyncAsync
	_, st := runPinnedSync(t, cfg)
	got := pinnedVirtual{
		syncs:       st.Syncs,
		served:      st.Served,
		violations:  st.Violations,
		trainSteps:  st.TrainSteps,
		virtualTime: st.VirtualTime,
		p50:         st.P50,
		p99:         st.P99,
	}
	if runtime.GOARCH != "amd64" {
		got.virtualTime, got.p50, got.p99 = want.virtualTime, want.p50, want.p99
	}
	if got != want {
		t.Fatalf("async virtual stats drifted\n got  %#v\n want %#v", got, want)
	}
}
