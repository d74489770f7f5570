package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"liveupdate/internal/collective"
	"liveupdate/internal/emt"
	"liveupdate/internal/lora"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
)

// SyncScale sweeps the fleet size 4→1024 and prices one identical training
// schedule under each sync collective topology (plus a delta+compressed
// variant), showing the sync bill per member growing ~log N under tree
// against ~N under flat. Every member trains on a shared hot set, so the
// merged state saturates while flat's gather keeps shipping every rank's
// payload to every rank — the redundancy hierarchical collectives remove.
// The state column is the merged-state fingerprint: identical across every
// topology and across delta/compression at each fleet size, by construction.

const (
	ssTables   = 2      // embedding tables
	ssRows     = 2048   // rows per table
	ssDim      = 16     // embedding dimension
	ssHot      = 1024   // shared hot-set size (ids all members train on)
	ssRounds   = 3      // sync rounds
	ssBatches  = 4      // training batches per member per round
	ssBatchIDs = 32     // ids per batch
	ssLat      = 100e-9 // 100 ns switch hop — a rack-scale fabric
	ssLR       = 0.05   // training rate
	ssCompress = 6      // flate level for the delta+compressed variant
	ssBw       = simnet.Gbps100
)

// ssCell is one (config, fleet size) measurement.
type ssCell struct {
	stats collective.GroupStats
	fp    uint64 // merged-state fingerprint
}

// ssConfig is one priced variant of the identical schedule.
type ssConfig struct {
	label    string
	kind     collective.Kind
	delta    bool
	compress int
}

func ssMemberRNG(seed uint64, round, member int) *tensor.RNG {
	return tensor.NewRNG(seed ^
		uint64(round+1)*0x9e3779b97f4a7c15 ^
		uint64(member+1)*0xbf58476d1ce4e5b9)
}

// runSyncScaleCell builds an n-member fleet, drives the deterministic shared
// training schedule with a sync after every round, and returns the group's
// bill plus the merged-state fingerprint. The schedule depends only on
// (seed, n), never on the pricing knobs, so every config merges identical
// states.
func runSyncScaleCell(seed uint64, n int, cfg ssConfig) (ssCell, error) {
	rng := tensor.NewRNG(seed ^ 0x5c5c5c5c)
	base := emt.NewGroup(ssTables, ssRows, ssDim, rng)
	lcfg := lora.DefaultConfig(ssRows, ssDim)
	lcfg.DisableRankAdapt = true
	sets := make([]*lora.Set, n)
	for i := range sets {
		c := lcfg
		c.Seed = seed + uint64(i)
		s, err := lora.NewSet(base, c) // adapters never write the shared base
		if err != nil {
			return ssCell{}, fmt.Errorf("syncscale: member %d: %w", i, err)
		}
		sets[i] = s
	}
	topo, err := collective.ParseTopology(cfg.kind)
	if err != nil {
		return ssCell{}, err
	}
	sg, err := collective.NewSyncGroup(collective.GroupConfig{
		BandwidthBps:  ssBw,
		LatencySec:    ssLat,
		Topology:      topo,
		Delta:         cfg.delta,
		CompressLevel: cfg.compress,
	})
	if err != nil {
		return ssCell{}, err
	}
	clock := simnet.NewClock()

	hotRNG := tensor.NewRNG(seed ^ 0x407)
	hot := make([]int32, ssHot)
	for i := range hot {
		hot[i] = int32(hotRNG.Intn(ssRows))
	}
	grad := make([]float64, ssDim)
	ids := make([]int32, ssBatchIDs)
	for round := 0; round < ssRounds; round++ {
		for m := 0; m < n; m++ {
			mrng := ssMemberRNG(seed, round, m)
			for b := 0; b < ssBatches; b++ {
				for k := range ids {
					ids[k] = hot[mrng.Intn(ssHot)]
				}
				for d := range grad {
					grad[d] = 0.1 * mrng.NormFloat64()
				}
				for t := 0; t < ssTables; t++ {
					sets[m].ApplyGrad(t, ids, grad, ssLR)
				}
			}
		}
		if err := syncSets(sg, clock, sets); err != nil {
			return ssCell{}, fmt.Errorf("syncscale: n=%d %s sync %d: %w", n, cfg.label, round+1, err)
		}
	}
	return ssCell{stats: sg.GroupStats(), fp: ssFingerprint(sets, hot)}, nil
}

// syncSets runs one priority-merge sync over sets the way a fleet does:
// snapshot each set (its index is its rank), merge and price in sg, and
// publish the merged state to every set.
func syncSets(sg *collective.SyncGroup, clock *simnet.Clock, sets []*lora.Set) error {
	states := make([]collective.RankedState, len(sets))
	for r, s := range sets {
		states[r] = collective.RankedState{Rank: r, Tables: s.Snapshot()}
	}
	merged, _, epoch, err := sg.Sync(clock, states)
	if err != nil {
		return err
	}
	for _, s := range sets {
		s.Publish(merged, epoch)
	}
	return nil
}

// ssFingerprint hashes the post-sync effective rows of a deterministic
// spread of members over a sample of the hot set. After the final publish
// every member holds the merged state, so the hash is both the in-fleet
// consistency witness and the cross-config equivalence witness.
func ssFingerprint(sets []*lora.Set, hot []int32) uint64 {
	h := fnv.New64a()
	dst := make([]float64, ssDim)
	var buf [8]byte
	step := len(sets) / 16
	if step == 0 {
		step = 1
	}
	for m := 0; m < len(sets); m += step {
		for t := 0; t < ssTables; t++ {
			for _, id := range hot[:64] {
				sets[m].EffectiveRow(t, id, dst)
				for _, v := range dst {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h.Write(buf[:])
				}
			}
		}
	}
	return h.Sum64()
}

func ssConfigs(o Options) ([]ssConfig, error) {
	if o.Topology != "" {
		kind := collective.Kind(o.Topology)
		if _, err := collective.ParseTopology(kind); err != nil {
			return nil, err
		}
		label := o.Topology
		if o.Delta {
			label += "+delta"
		}
		if o.Compress > 0 {
			label += fmt.Sprintf("+z%d", o.Compress)
		}
		return []ssConfig{{label: label, kind: kind, delta: o.Delta, compress: o.Compress}}, nil
	}
	return []ssConfig{
		{label: "flat", kind: collective.TopologyFlat},
		{label: "ring", kind: collective.TopologyRing},
		{label: "tree", kind: collective.TopologyTree},
		{label: "tree+dz", kind: collective.TopologyTree, delta: true, compress: ssCompress},
	}, nil
}

func ssSizes(quick bool) []int {
	if quick {
		return []int{4, 16, 64, 256}
	}
	return []int{4, 16, 64, 256, 1024}
}

// SyncScale is the fleet-scale sync experiment (see the package comment at
// the top of this file).
func SyncScale(o Options) (Report, error) {
	configs, err := ssConfigs(o)
	if err != nil {
		return Report{}, err
	}
	sizes := ssSizes(o.Quick)
	rep := Report{
		ID:     "syncscale",
		Title:  "fleet-scale sync: topology sweep 4→1024 (identical schedule, per-config pricing)",
		Header: []string{"config", "members", "syncs", "sync-s/member", "wireMB", "savedMB", "state"},
	}
	// cells[label][n]
	cells := make(map[string]map[int]ssCell, len(configs))
	for _, cfg := range configs {
		cells[cfg.label] = make(map[int]ssCell, len(sizes))
	}
	for _, n := range sizes {
		var wantFP uint64
		for ci, cfg := range configs {
			cell, err := runSyncScaleCell(o.Seed, n, cfg)
			if err != nil {
				return Report{}, err
			}
			if ci == 0 {
				wantFP = cell.fp
			} else if cell.fp != wantFP {
				return Report{}, fmt.Errorf(
					"syncscale: merged state diverged at n=%d: %s got %016x, %s got %016x",
					n, configs[0].label, wantFP, cfg.label, cell.fp)
			}
			cells[cfg.label][n] = cell
			gs := cell.stats
			saved := float64(gs.DeltaSavedBytes+gs.CompressSavedBytes) / 1e6
			rep.Rows = append(rep.Rows, []string{
				cfg.label,
				fmt.Sprintf("%d", n),
				fmt.Sprintf("%d", gs.Syncs),
				fmt.Sprintf("%.6f", gs.Seconds()),
				f2(float64(gs.WireBytes) / 1e6),
				f2(saved),
				fmt.Sprintf("%016x", cell.fp),
			})
		}
	}
	big := sizes[len(sizes)-1]
	small := sizes[0]
	if flat, ok := cells["flat"]; ok {
		if tree, ok2 := cells["tree"]; ok2 {
			ratio := float64(tree[big].stats.WireBytes) / float64(flat[big].stats.WireBytes)
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"wire bill at n=%d: tree moves %.1f%% of flat's bytes (gather is (n-1)·merged vs n·(2^⌈log2 n⌉-1)·perRank)",
				big, ratio*100))
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"sync seconds per member, n=%d→%d: flat ×%.0f (~N: every rank ships to every rank), tree ×%.1f (~log N: %d→%d rounds)",
				small, big,
				flat[big].stats.Seconds()/flat[small].stats.Seconds(),
				tree[big].stats.Seconds()/tree[small].stats.Seconds(),
				collective.Tree{}.Rounds(small), collective.Tree{}.Rounds(big)))
		}
		if ring, ok2 := cells["ring"]; ok2 {
			rep.Notes = append(rep.Notes, fmt.Sprintf(
				"ring matches tree's linear wire volume but pays n-1 hops of latency (%.0f ns each): bandwidth-optimal, not latency-optimal (n=%d: %.0f µs vs flat %.0f µs)",
				ssLat*1e9, big, ring[big].stats.Seconds()*1e6, flat[big].stats.Seconds()*1e6))
		}
	}
	rep.Notes = append(rep.Notes,
		"state column is the merged-state fingerprint: identical down each fleet-size block — topology, delta, and compression change only the bill, never the state",
		"savedMB = wire bytes avoided by delta (unchanged rows/factors) plus flate compression; tree+dz also bills CompressSeconds into sync-s")
	return rep, nil
}
