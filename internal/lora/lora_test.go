package lora

import (
	"math"
	"testing"
	"testing/quick"

	"liveupdate/internal/emt"
	"liveupdate/internal/tensor"
)

func testConfig() Config {
	cfg := DefaultConfig(100, 8)
	cfg.AdaptInterval = 50
	cfg.GradWindow = 64
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.Dim = 0 },
		func(c *Config) { c.InitialRank = 0 },
		func(c *Config) { c.InitialRank = c.Dim + 1 },
		func(c *Config) { c.MinRank = 0 },
		func(c *Config) { c.MinRank = c.MaxRank + 1 },
		func(c *Config) { c.MaxRank = c.Dim + 1 },
		func(c *Config) { c.Alpha = 0 },
		func(c *Config) { c.Alpha = 1.5 },
		func(c *Config) { c.AdaptInterval = 0 },
		func(c *Config) { c.CMin = 0 },
		func(c *Config) { c.CMin = c.CMax + 1 },
		func(c *Config) { c.GradWindow = 0 },
	}
	for i, mutate := range mutations {
		c := testConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Fatalf("mutation %d: expected validation error", i)
		}
	}
	if _, err := NewAdapter(Config{}); err == nil {
		t.Fatal("NewAdapter must reject zero config")
	}
}

func TestAdapterStartsAtZeroDelta(t *testing.T) {
	a := MustNewAdapter(testConfig())
	dst := make([]float64, 8)
	a.Delta(5, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("fresh adapter must have zero delta")
		}
	}
	if a.ActiveCount() != 0 || a.Has(5) {
		t.Fatal("fresh adapter must be empty")
	}
}

func TestTrainAllocatesAndMoves(t *testing.T) {
	a := MustNewAdapter(testConfig())
	grad := []float64{1, 0, 0, 0, 0, 0, 0, 0}
	// Several steps so both A (from B≠0 after the first B update... actually
	// with A=0,B=0 the first step moves nothing: dA = grad·Bᵀ = 0, dB = A·grad = 0.
	// Seed A by allocation then give B a kick through repeated training once a
	// row exists. To break symmetry the adapter relies on allocation plus the
	// next gradient — verify the well-known LoRA cold-start by priming A.
	a.Train([]int32{3}, grad, 0.1)
	if !a.Has(3) {
		t.Fatal("training must allocate a row")
	}
	// Prime: with both factors zero the product stays zero (standard LoRA
	// cold start when both are zero-initialized). Kick A manually as the
	// paper's trainer does via its initializer, then train.
	a.rows[3][0] = 0.5
	before := make([]float64, 8)
	a.Delta(3, before)
	a.Train([]int32{3}, grad, 0.1)
	after := make([]float64, 8)
	a.Delta(3, after)
	moved := false
	for i := range after {
		if after[i] != before[i] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("training with non-zero A must move ∆W")
	}
}

func TestTrainEmptyAndWrongDim(t *testing.T) {
	a := MustNewAdapter(testConfig())
	a.Train(nil, make([]float64, 8), 0.1) // no-op
	if a.ActiveCount() != 0 {
		t.Fatal("empty train must not allocate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong grad dim must panic")
		}
	}()
	a.Train([]int32{1}, make([]float64, 3), 0.1)
}

func TestCapacityLimit(t *testing.T) {
	cfg := testConfig()
	cfg.CMax = 5
	cfg.CMin = 1
	a := MustNewAdapter(cfg)
	grad := make([]float64, 8)
	grad[0] = 1
	for id := int32(0); id < 20; id++ {
		a.Train([]int32{id}, grad, 0.01)
	}
	if a.ActiveCount() > 5 {
		t.Fatalf("active %d exceeds CMax 5", a.ActiveCount())
	}
}

func TestResizeGrowPreservesDelta(t *testing.T) {
	a := MustNewAdapter(testConfig())
	seedAdapter(a, 10)
	before := snapshotDeltas(a, 10)
	a.Resize(7)
	if a.Rank() != 7 {
		t.Fatalf("rank %d, want 7", a.Rank())
	}
	after := snapshotDeltas(a, 10)
	for id, b := range before {
		for i := range b {
			if math.Abs(b[i]-after[id][i]) > 1e-12 {
				t.Fatal("growing rank must preserve ∆W exactly")
			}
		}
	}
}

// Growing the rank draws fresh A coordinates from the adapter's seeded RNG;
// the draws must land on the same rows every run, so two same-seed adapters
// trained identically hold bit-identical A rows after growing.
func TestResizeGrowReproducibleAtFixedSeed(t *testing.T) {
	grow := func() []RowUpdate {
		cfg := testConfig()
		cfg.Seed = 11
		cfg.DisableRankAdapt = true
		a := MustNewAdapter(cfg)
		rng := tensor.NewRNG(3)
		grad := make([]float64, cfg.Dim)
		for step := 0; step < 30; step++ {
			ids := []int32{int32(rng.Intn(100)), int32(rng.Intn(100)), int32(rng.Intn(100))}
			for i := range grad {
				grad[i] = rng.NormFloat64()
			}
			a.Train(ids, grad, 0.1)
		}
		a.Resize(7)
		return a.ExportAllRows()
	}
	first, second := grow(), grow()
	if len(first) < 20 || len(first) != len(second) {
		t.Fatalf("active rows %d vs %d, want equal and >= 20", len(first), len(second))
	}
	for i := range first {
		if first[i].ID != second[i].ID {
			t.Fatalf("row %d: id %d vs %d", i, first[i].ID, second[i].ID)
		}
		for k := range first[i].Row {
			if math.Float64bits(first[i].Row[k]) != math.Float64bits(second[i].Row[k]) {
				t.Fatalf("id %d coordinate %d: %v vs %v after same-seed grow",
					first[i].ID, k, first[i].Row[k], second[i].Row[k])
			}
		}
	}
}

func TestResizeShrinkApproximatesDelta(t *testing.T) {
	a := MustNewAdapter(testConfig())
	seedAdapter(a, 20)
	before := snapshotDeltas(a, 20)
	a.Resize(2)
	if a.Rank() != 2 {
		t.Fatalf("rank %d, want 2", a.Rank())
	}
	after := snapshotDeltas(a, 20)
	// The deltas were built from rank-4 factors; rank-2 is an approximation.
	// Verify the relative error is bounded (Eckart–Young gives the best
	// rank-2 error; we just require it's not catastrophic).
	var num, den float64
	for id, b := range before {
		for i := range b {
			d := b[i] - after[id][i]
			num += d * d
			den += b[i] * b[i]
		}
	}
	if den > 0 && num/den > 0.9 {
		t.Fatalf("shrink destroyed delta: relative sq error %v", num/den)
	}
}

func TestResizeClampsAndNoops(t *testing.T) {
	a := MustNewAdapter(testConfig())
	a.Resize(a.Rank()) // no-op
	a.Resize(100)      // clamps to MaxRank (=Dim=8)
	if a.Rank() != 8 {
		t.Fatalf("rank %d, want clamp to 8", a.Rank())
	}
	a.Resize(0) // clamps to MinRank
	if a.Rank() != 1 {
		t.Fatalf("rank %d, want clamp to 1", a.Rank())
	}
	// Shrinking with no rows resets B shape cleanly.
	b := MustNewAdapter(testConfig())
	b.Resize(2)
	if b.Rank() != 2 || b.B().Rows != 2 {
		t.Fatal("empty shrink must resize B")
	}
}

func TestAdaptRankTracksGradientStructure(t *testing.T) {
	// Feed rank-1 gradients: adaptation should shrink toward MinRank.
	cfg := testConfig()
	cfg.InitialRank = 6
	cfg.AdaptInterval = 40
	a := MustNewAdapter(cfg)
	dir := []float64{1, 2, -1, 0.5, 0, 0, 0, 0}
	rng := tensor.NewRNG(3)
	for i := 0; i < 200; i++ {
		g := make([]float64, 8)
		scale := rng.NormFloat64()
		for j := range g {
			g[j] = scale * dir[j]
		}
		a.Train([]int32{int32(i % 30)}, g, 0.01)
	}
	if a.Adaptations() == 0 {
		t.Fatal("adaptation never ran")
	}
	if a.Rank() > 2 {
		t.Fatalf("rank-1 gradients should shrink rank, got %d", a.Rank())
	}
}

func TestAdaptRankGrowsForRichGradients(t *testing.T) {
	cfg := testConfig()
	cfg.InitialRank = 1
	cfg.Alpha = 0.95
	cfg.AdaptInterval = 40
	a := MustNewAdapter(cfg)
	rng := tensor.NewRNG(5)
	for i := 0; i < 200; i++ {
		g := make([]float64, 8)
		for j := range g {
			g[j] = rng.NormFloat64() // full-rank gradient stream
		}
		a.Train([]int32{int32(i % 30)}, g, 0.01)
	}
	if a.Rank() <= 1 {
		t.Fatalf("full-rank gradients should grow rank, got %d", a.Rank())
	}
}

func TestPruningEvictsInactive(t *testing.T) {
	cfg := testConfig()
	cfg.AdaptInterval = 100
	cfg.PruneThresh = 2
	cfg.CMin = 1
	a := MustNewAdapter(cfg)
	grad := make([]float64, 8)
	grad[0] = 0.1
	// id 1 updated often; ids 50..58 once each.
	for i := 0; i < 90; i++ {
		a.Train([]int32{1}, grad, 0.01)
	}
	for id := int32(50); id < 59; id++ {
		a.Train([]int32{id}, grad, 0.01)
	}
	// 99 iterations so far; next one triggers adapt at 100.
	a.Train([]int32{1}, grad, 0.01)
	if a.Adaptations() != 1 {
		t.Fatalf("adaptations %d, want 1", a.Adaptations())
	}
	if a.Has(50) || a.Has(58) {
		t.Fatal("singly-updated ids must be pruned with PruneThresh=2")
	}
	if !a.Has(1) {
		t.Fatal("hot id must survive pruning")
	}
	if a.PrunedTotal() == 0 {
		t.Fatal("pruned counter must advance")
	}
}

func TestSupportExportApplyRoundTrip(t *testing.T) {
	a := MustNewAdapter(testConfig())
	seedAdapter(a, 5)
	if a.SupportSize() == 0 {
		t.Fatal("training must record support")
	}
	export := a.ExportSupport()
	if len(export) != a.SupportSize() {
		t.Fatalf("export %d != support %d", len(export), a.SupportSize())
	}
	b := MustNewAdapter(testConfig())
	b.SetB(a.B())
	b.ApplyRows(export)
	for _, u := range export {
		da := make([]float64, 8)
		db := make([]float64, 8)
		a.Delta(u.ID, da)
		b.Delta(u.ID, db)
		for i := range da {
			if math.Abs(da[i]-db[i]) > 1e-12 {
				t.Fatal("applied rows must reproduce sender deltas")
			}
		}
	}
	// Applying must not pollute receiver support.
	if b.SupportSize() != 0 {
		t.Fatal("ApplyRows must not enter support")
	}
	a.ResetSupport()
	if a.SupportSize() != 0 {
		t.Fatal("ResetSupport failed")
	}
}

func TestApplyRowsRankMismatch(t *testing.T) {
	a := MustNewAdapter(testConfig())                                // rank 4
	a.ApplyRows([]RowUpdate{{ID: 1, Row: []float64{1, 2}}})          // shorter
	a.ApplyRows([]RowUpdate{{ID: 2, Row: []float64{1, 2, 3, 4, 5}}}) // longer
	if len(a.rows[1]) != 4 || len(a.rows[2]) != 4 {
		t.Fatal("applied rows must be adapted to local rank")
	}
}

func TestSetBRankMismatchAndDimPanic(t *testing.T) {
	a := MustNewAdapter(testConfig())
	a.SetB(tensor.NewMatrix(2, 8)) // shorter: zero-pad
	if a.B().Rows != 4 {
		t.Fatal("SetB must keep local rank")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetB with wrong dim must panic")
		}
	}()
	a.SetB(tensor.NewMatrix(4, 5))
}

func TestReset(t *testing.T) {
	a := MustNewAdapter(testConfig())
	seedAdapter(a, 5)
	a.Reset()
	if a.ActiveCount() != 0 || a.SupportSize() != 0 {
		t.Fatal("reset must clear rows and support")
	}
	dst := make([]float64, 8)
	a.Delta(0, dst)
	for _, v := range dst {
		if v != 0 {
			t.Fatal("reset must zero deltas")
		}
	}
}

func TestSizeBytes(t *testing.T) {
	a := MustNewAdapter(testConfig()) // rank 4, dim 8
	base := a.SizeBytes()
	if base != 4*8*8 { // B only
		t.Fatalf("empty adapter bytes %d", base)
	}
	seedAdapter(a, 10)
	if a.SizeBytes() != int64(10*4*8+4*8*8) {
		t.Fatalf("bytes %d", a.SizeBytes())
	}
}

// --- Set tests ---

func newTestSet(t *testing.T) *Set {
	t.Helper()
	rng := tensor.NewRNG(7)
	base := emt.NewGroup(3, 100, 8, rng)
	return MustNewSet(base, testConfig())
}

func TestSetLookupColdEqualsBase(t *testing.T) {
	s := newTestSet(t)
	dst := make([]float64, 8)
	s.Lookup(0, []int32{5}, dst)
	baseRow := s.Base.Tables[0].PeekRow(5)
	for i := range dst {
		if dst[i] != baseRow[i] {
			t.Fatal("cold lookup must equal base")
		}
	}
}

func TestSetLookupHotAddsDelta(t *testing.T) {
	s := newTestSet(t)
	a := s.Adapters[0]
	a.rows[5] = []float64{1, 0, 0, 0}
	b := tensor.NewMatrix(4, 8)
	b.Set(0, 0, 0.5)
	a.SetB(b)
	dst := make([]float64, 8)
	s.Lookup(0, []int32{5}, dst)
	baseRow := s.Base.Tables[0].PeekRow(5)
	if math.Abs(dst[0]-(baseRow[0]+0.5)) > 1e-12 {
		t.Fatalf("hot lookup must add ∆W: got %v want %v", dst[0], baseRow[0]+0.5)
	}
	for i := 1; i < 8; i++ {
		if dst[i] != baseRow[i] {
			t.Fatal("other coords unchanged")
		}
	}
}

func TestSetApplyGradFreezesBase(t *testing.T) {
	s := newTestSet(t)
	baseBefore := append([]float64(nil), s.Base.Tables[1].PeekRow(3)...)
	grad := make([]float64, 8)
	grad[0] = 1
	s.ApplyGrad(1, []int32{3}, grad, 0.1)
	baseAfter := s.Base.Tables[1].PeekRow(3)
	for i := range baseBefore {
		if baseBefore[i] != baseAfter[i] {
			t.Fatal("base weights must stay frozen under LoRA training")
		}
	}
	if s.Base.Tables[1].DirtyCount() != 0 {
		t.Fatal("LoRA training must not dirty the base")
	}
	if !s.Adapters[1].Has(3) {
		t.Fatal("gradient must land in the adapter")
	}
}

func TestSetMergeIntoBase(t *testing.T) {
	s := newTestSet(t)
	a := s.Adapters[0]
	a.rows[7] = []float64{2, 0, 0, 0}
	b := tensor.NewMatrix(4, 8)
	b.Set(0, 3, 1.5)
	a.SetB(b)
	want := make([]float64, 8)
	s.EffectiveRow(0, 7, want)
	s.MergeIntoBase()
	got := s.Base.Tables[0].PeekRow(7)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatal("merge must fold ∆W into base")
		}
	}
	if s.Adapters[0].ActiveCount() != 0 {
		t.Fatal("merge must reset adapters")
	}
	// Post-merge lookups serve the merged value.
	dst := make([]float64, 8)
	s.Lookup(0, []int32{7}, dst)
	for i := range want {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatal("post-merge lookup mismatch")
		}
	}
}

func TestSetOverheadRatio(t *testing.T) {
	s := newTestSet(t)
	// Base: 3 tables × 100×8×8 bytes. Empty adapters: 3 × B(4×8×8).
	ratio := s.OverheadRatio()
	want := float64(3*4*8*8) / float64(3*100*8*8)
	if math.Abs(ratio-want) > 1e-12 {
		t.Fatalf("overhead %v, want %v", ratio, want)
	}
}

func TestSetStateRoundTrip(t *testing.T) {
	s1 := newTestSet(t)
	grad := make([]float64, 8)
	grad[2] = 1
	s1.ApplyGrad(0, []int32{1, 2}, grad, 0.05)
	s1.ApplyGrad(2, []int32{9}, grad, 0.05)
	// Make deltas non-zero (B starts zero → kick a row and retrain).
	s1.Adapters[0].rows[1][0] = 0.3
	s1.ApplyGrad(0, []int32{1}, grad, 0.05)

	states := s1.ExportState()
	if PayloadBytes(states) <= 0 {
		t.Fatal("payload must be positive")
	}
	s2 := newTestSet(t)
	s2.ApplyState(states)
	for _, table := range []int{0, 2} {
		for _, u := range states[table].Rows {
			d1 := make([]float64, 8)
			d2 := make([]float64, 8)
			s1.Adapters[table].Delta(u.ID, d1)
			s2.Adapters[table].Delta(u.ID, d2)
			for i := range d1 {
				if math.Abs(d1[i]-d2[i]) > 1e-12 {
					t.Fatal("state sync must reproduce deltas")
				}
			}
		}
	}
	s1.ResetSupports()
	for _, a := range s1.Adapters {
		if a.SupportSize() != 0 {
			t.Fatal("ResetSupports failed")
		}
	}
}

// TestSetPublishRoundTrip: repeated ApplyState/Publish of one exported
// state stamps each epoch and reproduces the exported deltas exactly —
// re-applying rows that are already resident must not perturb them.
func TestSetPublishRoundTrip(t *testing.T) {
	src := newTestSet(t)
	grad := make([]float64, 8)
	grad[1] = 1
	for id := int32(0); id < 40; id++ {
		src.ApplyGrad(int(id)%3, []int32{id % 20}, grad, 0.05)
	}
	states := src.ExportState()
	epochs := []int64{1, 2, 3}

	dst := newTestSet(t)
	for i := 0; i < 200; i++ {
		dst.ApplyState(states)
		dst.Publish(states, epochs[i%len(epochs)])
	}
	if got := dst.Epoch(); got != epochs[(200-1)%len(epochs)] {
		t.Fatalf("published epoch = %d, want %d", got, epochs[(200-1)%len(epochs)])
	}
	if v := dst.Published(); v == nil || len(v.Tables) != 3 {
		t.Fatal("published version must carry the applied tables")
	}
	d1 := make([]float64, 8)
	d2 := make([]float64, 8)
	for table := range states {
		for _, u := range states[table].Rows {
			src.Adapters[table].Delta(u.ID, d1)
			dst.Adapters[table].Delta(u.ID, d2)
			for i := range d1 {
				if math.Abs(d1[i]-d2[i]) > 1e-12 {
					t.Fatalf("table %d id %d: delta diverged after repeated round-trip", table, u.ID)
				}
			}
		}
	}
}

// TestSetSnapshotClearsSupports verifies the pipelined snapshot contract:
// Snapshot exports the current supports and clears them, so training that
// lands after the snapshot feeds the next sync epoch instead of being lost.
func TestSetSnapshotClearsSupports(t *testing.T) {
	s := newTestSet(t)
	grad := make([]float64, 8)
	grad[0] = 1
	s.ApplyGrad(0, []int32{4}, grad, 0.05)
	snap := s.Snapshot()
	if len(snap[0].Rows) != 1 || snap[0].Rows[0].ID != 4 {
		t.Fatalf("snapshot missing trained row: %+v", snap[0].Rows)
	}
	for _, a := range s.Adapters {
		if a.SupportSize() != 0 {
			t.Fatal("Snapshot must clear supports")
		}
	}
	// Post-snapshot training lands in the next epoch's support.
	s.ApplyGrad(0, []int32{9}, grad, 0.05)
	next := s.Snapshot()
	if len(next[0].Rows) != 1 || next[0].Rows[0].ID != 9 {
		t.Fatalf("post-snapshot training must feed the next epoch: %+v", next[0].Rows)
	}
}

func TestSetHasHot(t *testing.T) {
	s := newTestSet(t)
	if s.HasHot(0, []int32{1, 2, 3}) {
		t.Fatal("empty set must report cold")
	}
	s.Adapters[0].rows[2] = make([]float64, 4)
	if !s.HasHot(0, []int32{1, 2, 3}) {
		t.Fatal("resident id must report hot")
	}
}

// Property: for arbitrary training sequences the adapter invariants hold —
// ActiveCount ≤ CMax, rank within [MinRank, MaxRank], SizeBytes consistent.
func TestPropertyAdapterInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		cfg := testConfig()
		cfg.CMax = 20
		cfg.CMin = 2
		cfg.AdaptInterval = 16
		a := MustNewAdapter(cfg)
		for i := 0; i < 120; i++ {
			n := 1 + rng.Intn(3)
			ids := make([]int32, n)
			for j := range ids {
				ids[j] = int32(rng.Intn(60))
			}
			g := make([]float64, 8)
			for j := range g {
				g[j] = rng.NormFloat64()
			}
			a.Train(ids, g, 0.01)
			if a.ActiveCount() > cfg.CMax {
				return false
			}
			if a.Rank() < cfg.MinRank || a.Rank() > cfg.MaxRank {
				return false
			}
			if a.SizeBytes() != int64(a.ActiveCount())*int64(a.Rank())*8+int64(a.Rank())*8*8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// seedAdapter populates n rows with non-trivial factors by direct injection
// plus training steps, giving a realistic non-zero ∆W.
func seedAdapter(a *Adapter, n int) {
	rng := tensor.NewRNG(777)
	for id := int32(0); id < int32(n); id++ {
		row := make([]float64, a.Rank())
		for k := range row {
			row[k] = rng.NormFloat64() * 0.2
		}
		a.rows[id] = row
		a.supp[id] = struct{}{}
	}
	b := tensor.NewMatrix(a.Rank(), a.cfg.Dim)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64() * 0.2
	}
	a.SetB(b)
}

func snapshotDeltas(a *Adapter, n int) map[int32][]float64 {
	out := make(map[int32][]float64)
	for id := int32(0); id < int32(n); id++ {
		d := make([]float64, a.cfg.Dim)
		a.Delta(id, d)
		out[id] = d
	}
	return out
}
