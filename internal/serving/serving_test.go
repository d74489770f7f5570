package serving

import (
	"testing"

	"liveupdate/internal/dlrm"
	"liveupdate/internal/emt"
	"liveupdate/internal/numasim"
	"liveupdate/internal/simnet"
	"liveupdate/internal/tensor"
	"liveupdate/internal/trace"
)

func testProfile() trace.Profile {
	p := trace.Profiles()["criteo"]
	p.NumTables = 3
	p.TableSize = 200
	p.NumDense = 4
	p.MultiHot = []int{1, 1, 2}
	return p
}

func newTestNode(t *testing.T) (*Node, *trace.Generator) {
	t.Helper()
	p := testProfile()
	rng := tensor.NewRNG(1)
	cfg := dlrm.Config{
		NumTables: p.NumTables, EmbeddingDim: p.EmbeddingDim, NumDense: p.NumDense,
		BottomHidden: []int{16}, TopHidden: []int{16},
	}
	model := dlrm.MustNewModel(cfg, rng)
	group := emt.NewGroup(p.NumTables, p.TableSize, p.EmbeddingDim, rng)
	clock := simnet.NewClock()
	machine := numasim.MustNewMachine(numasim.DefaultConfig(), clock)
	node := MustNewNode(DefaultNodeConfig(), model, &dlrm.BaseEmbeddings{Group: group}, machine, clock)
	return node, trace.MustNewGenerator(p, 2)
}

// serve scores and commits one request — Predict then Commit, the way
// core.System drives a Node.
func serve(n *Node, s trace.Sample) (prob, latency float64) {
	prob = n.Predict(s)
	return prob, n.Commit(s)
}

func TestRingBufferBasics(t *testing.T) {
	r := NewRingBuffer(3)
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatal("fresh buffer must be empty")
	}
	for i := 0; i < 5; i++ {
		r.Push(trace.Sample{Time: float64(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len %d, want 3 (capacity)", r.Len())
	}
	if r.Total() != 5 {
		t.Fatalf("total %d", r.Total())
	}
	recent := r.Recent(3)
	if len(recent) != 3 {
		t.Fatalf("recent %d", len(recent))
	}
	// Newest last: times 2,3,4.
	if recent[0].Time != 2 || recent[2].Time != 4 {
		t.Fatalf("recent order: %v %v %v", recent[0].Time, recent[1].Time, recent[2].Time)
	}
	// Recent(n) with n > len clamps.
	if len(r.Recent(99)) != 3 {
		t.Fatal("Recent must clamp")
	}
}

func TestRingBufferRecentWrapAroundOrdering(t *testing.T) {
	const cap = 5
	r := NewRingBuffer(cap)
	// Drive the write cursor across the wrap seam several times and verify
	// Recent returns chronologically ordered samples (newest last) at every
	// position of the cursor, for both full-window and partial reads.
	for i := 0; i < 3*cap+2; i++ {
		r.Push(trace.Sample{Time: float64(i)})
		newest := float64(i)
		for _, n := range []int{1, 2, cap, cap + 3} {
			got := r.Recent(n)
			want := n
			if want > r.Len() {
				want = r.Len()
			}
			if len(got) != want {
				t.Fatalf("push %d: Recent(%d) returned %d samples, want %d", i, n, len(got), want)
			}
			for k, s := range got {
				expect := newest - float64(want-1-k)
				if s.Time != expect {
					t.Fatalf("push %d: Recent(%d)[%d] = %v, want %v (wrap-around order broken)",
						i, n, k, s.Time, expect)
				}
			}
		}
	}
	if got := r.Recent(0); len(got) != 0 {
		t.Fatalf("Recent(0) must be empty, got %d", len(got))
	}
}

func TestRingBufferSample(t *testing.T) {
	r := NewRingBuffer(10)
	rng := tensor.NewRNG(3)
	if r.Sample(rng, 5) != nil {
		t.Fatal("sampling empty buffer must return nil")
	}
	for i := 0; i < 4; i++ {
		r.Push(trace.Sample{Time: float64(i)})
	}
	batch := r.Sample(rng, 20)
	if len(batch) != 20 {
		t.Fatalf("batch %d", len(batch))
	}
	for _, s := range batch {
		if s.Time < 0 || s.Time > 3 {
			t.Fatalf("sampled ghost element %v", s.Time)
		}
	}
	if r.Sample(rng, 0) != nil {
		t.Fatal("n<=0 must return nil")
	}
}

func TestNodeConfigValidate(t *testing.T) {
	if err := DefaultNodeConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultNodeConfig()
	bad.GPUDenseTime = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero GPU time must fail")
	}
	bad = DefaultNodeConfig()
	bad.SLA = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative SLA must fail")
	}
	if _, err := NewNode(NodeConfig{}, nil, nil, nil, nil); err == nil {
		t.Fatal("NewNode must reject invalid config")
	}
}

func TestServeReturnsLatencyAndAdvancesClock(t *testing.T) {
	node, gen := newTestNode(t)
	before := node.Clock.Now()
	s := gen.Next()
	prob, lat := serve(node, s)
	if prob <= 0 || prob >= 1 {
		t.Fatalf("prob %v", prob)
	}
	if lat < node.Cfg.GPUDenseTime {
		t.Fatalf("latency %v below GPU floor", lat)
	}
	if node.Clock.Now() <= before {
		t.Fatal("serve must advance the clock")
	}
	if node.Served() != 1 {
		t.Fatalf("served %d", node.Served())
	}
	if node.Ring.Len() != 1 {
		t.Fatal("request must be cached in the ring buffer")
	}
}

func TestServeWarmLatencyDropsAndP99(t *testing.T) {
	node, gen := newTestNode(t)
	// Serve the same sample repeatedly: after the first, rows are cached.
	s := gen.Next()
	_, cold := serve(node, s)
	var warm float64
	for i := 0; i < 50; i++ {
		_, warm = serve(node, s)
	}
	if warm >= cold {
		t.Fatalf("warm latency %v should be below cold %v", warm, cold)
	}
	if node.P99() <= 0 {
		t.Fatal("P99 must be positive after serving")
	}
}

func TestViolationTracking(t *testing.T) {
	node, gen := newTestNode(t)
	node.Cfg.SLA = 1e-9 // everything violates
	for i := 0; i < 10; i++ {
		serve(node, gen.Next())
	}
	if node.ViolationRate() != 1 {
		t.Fatalf("violation rate %v, want 1", node.ViolationRate())
	}
	node.ResetLatencyStats()
	if node.ViolationRate() != 0 || node.Served() != 0 || node.P99() != 0 {
		t.Fatal("ResetLatencyStats failed")
	}
}

func TestServeBatch(t *testing.T) {
	node, gen := newTestNode(t)
	batch := gen.Batch(20, 1)
	probs := make([]float64, len(batch))
	node.PredictBatch(batch, probs)
	for i, s := range batch {
		if probs[i] <= 0 || probs[i] >= 1 {
			t.Fatalf("prob %d = %v", i, probs[i])
		}
		if lat := node.Commit(s); lat <= 0 {
			t.Fatalf("latency %v", lat)
		}
	}
	if node.Served() != 20 {
		t.Fatalf("served %d", node.Served())
	}
	node.PredictBatch(nil, nil) // an empty batch is a no-op
	if node.Served() != 20 {
		t.Fatal("empty batch must not serve")
	}
}

func TestHotRowsServedFromCache(t *testing.T) {
	node, gen := newTestNode(t)
	// Zipf skew means the hot set gets cached quickly: after a warmup the
	// inference hit ratio should be substantial (paper Fig 12 → Fig 11 link).
	for i := 0; i < 300; i++ {
		serve(node, gen.Next())
	}
	node.Machine.ResetStats()
	for i := 0; i < 300; i++ {
		serve(node, gen.Next())
	}
	if hr := node.Machine.HitRatio(numasim.Inference); hr < 0.3 {
		t.Fatalf("steady-state hit ratio %v too low for Zipf traffic", hr)
	}
}

// --- Serving fast path ---

// TestServeEqualsPredictPlusCommit: the two halves of the serving path are
// independent — scoring a request before or after committing it gives the
// same probability, and the bookkeeping is the same either way — so the
// lock-split System can run them under different locks without changing any
// virtual-time statistic.
func TestServeEqualsPredictPlusCommit(t *testing.T) {
	a, genA := newTestNode(t)
	b, genB := newTestNode(t)
	for i := 0; i < 300; i++ {
		sa, sb := genA.Next(), genB.Next()
		probA, latA := serve(a, sa)
		latB := b.Commit(sb)
		probB := b.Predict(sb)
		if probA != probB || latA != latB {
			t.Fatalf("req %d: Predict+Commit (%v, %v) != Commit+Predict (%v, %v)", i, probA, latA, probB, latB)
		}
	}
	if a.Served() != b.Served() || a.Violations() != b.Violations() ||
		a.Clock.Now() != b.Clock.Now() || a.P99() != b.P99() ||
		a.Ring.Total() != b.Ring.Total() {
		t.Fatalf("bookkeeping diverged: served %d/%d clock %v/%v",
			a.Served(), b.Served(), a.Clock.Now(), b.Clock.Now())
	}
}

// TestServeBatchMatchesServeLoop: scoring a batch through PredictBatch and
// then committing it must give bit-identical probabilities and virtual-time
// state to a per-request Predict+Commit loop.
func TestServeBatchMatchesServeLoop(t *testing.T) {
	a, genA := newTestNode(t)
	b, genB := newTestNode(t)
	batch := make([]trace.Sample, 64)
	for i := range batch {
		batch[i] = genA.Next()
		genB.Next() // keep generators aligned (samples are identical streams)
	}
	probs := make([]float64, len(batch))
	b.PredictBatch(batch, probs)
	for i, s := range batch {
		probA, latA := serve(a, s)
		if latB := b.Commit(s); probA != probs[i] || latA != latB {
			t.Fatalf("req %d: loop (%v, %v) != batch (%v, %v)", i, probA, latA, probs[i], latB)
		}
	}
	if a.Served() != b.Served() || a.Clock.Now() != b.Clock.Now() ||
		a.Violations() != b.Violations() || a.P99() != b.P99() {
		t.Fatalf("batch bookkeeping diverged: served %d/%d clock %v/%v",
			a.Served(), b.Served(), a.Clock.Now(), b.Clock.Now())
	}
}

// TestNodePredictZeroAlloc: the Predict half performs no heap allocation —
// the property the CI alloc gate enforces end to end.
func TestNodePredictZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n, gen := newTestNode(t)
	s := gen.Next()
	if allocs := testing.AllocsPerRun(200, func() { n.Predict(s) }); allocs != 0 {
		t.Fatalf("Node.Predict allocates %v per run, want 0", allocs)
	}
}
