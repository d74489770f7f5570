package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"liveupdate/internal/tensor"
)

func TestAUCPerfectSeparation(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []int{1, 1, 0, 0}
	if got := AUC(scores, labels); got != 1 {
		t.Fatalf("AUC = %v, want 1", got)
	}
}

func TestAUCInverted(t *testing.T) {
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{1, 1, 0, 0}
	if got := AUC(scores, labels); got != 0 {
		t.Fatalf("AUC = %v, want 0", got)
	}
}

func TestAUCAllTied(t *testing.T) {
	scores := []float64{0.5, 0.5, 0.5, 0.5}
	labels := []int{1, 0, 1, 0}
	if got := AUC(scores, labels); got != 0.5 {
		t.Fatalf("AUC with ties = %v, want 0.5", got)
	}
}

func TestAUCSingleClass(t *testing.T) {
	if got := AUC([]float64{0.3, 0.7}, []int{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v, want 0.5", got)
	}
	if got := AUC(nil, nil); got != 0.5 {
		t.Fatalf("empty AUC = %v, want 0.5", got)
	}
}

func TestAUCKnownValue(t *testing.T) {
	// One mis-ranked pair among 2x2 = 4 pairs → AUC = 3/4.
	scores := []float64{0.9, 0.3, 0.5, 0.1}
	labels := []int{1, 1, 0, 0}
	if got := AUC(scores, labels); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("AUC = %v, want 0.75", got)
	}
}

// Property: AUC is invariant under any strictly monotone transform of scores.
func TestPropertyAUCMonotoneInvariant(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.Intn(50)
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Intn(2)
		}
		a1 := AUC(scores, labels)
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(3*s) + 7 // strictly increasing
		}
		a2 := AUC(transformed, labels)
		return math.Abs(a1-a2) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: flipping all labels maps AUC to 1-AUC (when both classes present).
func TestPropertyAUCLabelFlip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 10 + rng.Intn(50)
		scores := make([]float64, n)
		labels := make([]int, n)
		pos := 0
		for i := range scores {
			scores[i] = rng.Float64()
			labels[i] = rng.Intn(2)
			pos += labels[i]
		}
		if pos == 0 || pos == n {
			return true // degenerate, AUC pinned at 0.5 either way
		}
		flipped := make([]int, n)
		for i, l := range labels {
			flipped[i] = 1 - l
		}
		return math.Abs(AUC(scores, labels)+AUC(scores, flipped)-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestLogLoss(t *testing.T) {
	// Perfect confident predictions → near-zero loss.
	if l := LogLoss([]float64{1, 0}, []int{1, 0}); l > 1e-9 {
		t.Fatalf("perfect logloss = %v", l)
	}
	// p=0.5 everywhere → ln 2.
	l := LogLoss([]float64{0.5, 0.5}, []int{1, 0})
	if math.Abs(l-math.Ln2) > 1e-12 {
		t.Fatalf("logloss = %v, want ln2", l)
	}
	if LogLoss(nil, nil) != 0 {
		t.Fatal("empty logloss must be 0")
	}
}

// quantileCases is the Quantile truth table; FuzzQuantile seeds from it.
var quantileCases = []struct {
	name string
	vals []float64
	q    float64
	want float64
}{
	{"median", []float64{1, 2, 3, 4, 5}, 0.5, 3},
	{"q0", []float64{1, 2, 3, 4, 5}, 0, 1},
	{"q1", []float64{1, 2, 3, 4, 5}, 1, 5},
	{"q25", []float64{1, 2, 3, 4, 5}, 0.25, 2},
	{"empty", nil, 0.5, 0},
	// Out-of-range q clamps.
	{"clamp high", []float64{1, 2, 3, 4, 5}, 2, 5},
	{"clamp low", []float64{1, 2, 3, 4, 5}, -1, 1},
}

func TestQuantile(t *testing.T) {
	for _, c := range quantileCases {
		if got := Quantile(c.vals, c.q); got != c.want {
			t.Fatalf("%s: Quantile(%v, %v) = %v, want %v", c.name, c.vals, c.q, got, c.want)
		}
	}
}

func TestLatencyTrackerBasics(t *testing.T) {
	tr := NewLatencyTracker(100)
	for i := 1; i <= 100; i++ {
		tr.Observe(float64(i))
	}
	if tr.Count() != 100 {
		t.Fatalf("count = %d", tr.Count())
	}
	if m := tr.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
	if p := tr.P99(); p < 98 || p > 100 {
		t.Fatalf("p99 = %v", p)
	}
	if p := tr.P50(); p < 49 || p > 52 {
		t.Fatalf("p50 = %v", p)
	}
}

func TestLatencyTrackerSlidingWindow(t *testing.T) {
	tr := NewLatencyTracker(10)
	for i := 0; i < 100; i++ {
		tr.Observe(1)
	}
	for i := 0; i < 10; i++ {
		tr.Observe(100)
	}
	// Window now holds only the 100s.
	if p := tr.P50(); p != 100 {
		t.Fatalf("window p50 = %v, want 100", p)
	}
	if tr.Count() != 110 {
		t.Fatalf("count = %d, want 110", tr.Count())
	}
}

func TestLatencyTrackerReset(t *testing.T) {
	tr := NewLatencyTracker(10)
	tr.Observe(5)
	tr.Reset()
	if tr.Count() != 0 || tr.Mean() != 0 || tr.P99() != 0 {
		t.Fatal("reset did not clear state")
	}
}

func TestHistogramAndCDF(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for i := 0; i < 10; i++ {
		h.Observe(float64(i) + 0.5)
	}
	if h.Total() != 10 {
		t.Fatalf("total = %d", h.Total())
	}
	cdf := h.CDF()
	if cdf[0] != 0.1 || math.Abs(cdf[9]-1) > 1e-12 {
		t.Fatalf("cdf = %v", cdf)
	}
	// Clamping of out-of-range values.
	h.Observe(-5)
	h.Observe(99)
	if h.Counts[0] != 2 || h.Counts[9] != 2 {
		t.Fatalf("clamp failed: %v", h.Counts)
	}
}

func TestTopShareCDF(t *testing.T) {
	// 10 items; item 0 gets 90 accesses, others 10 total.
	counts := make([]uint64, 10)
	counts[0] = 90
	for i := 1; i < 10; i++ {
		counts[i] = 1
	}
	// Top 10% (1 item) should hold 90/99 of the mass.
	got := TopShareCDF(counts, 0.10)
	want := 90.0 / 99.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("TopShareCDF = %v, want %v", got, want)
	}
	if TopShareCDF(counts, 1.0) != 1 {
		t.Fatal("full fraction must capture everything")
	}
	if TopShareCDF(nil, 0.1) != 0 {
		t.Fatal("empty counts → 0")
	}
	if TopShareCDF(make([]uint64, 5), 0.1) != 0 {
		t.Fatal("all-zero counts → 0")
	}
}

func TestEMA(t *testing.T) {
	e := &EMA{Alpha: 0.5}
	if e.Value() != 0 {
		t.Fatal("initial EMA must be 0")
	}
	e.Observe(10) // initializes to 10
	if e.Value() != 10 {
		t.Fatalf("EMA init = %v", e.Value())
	}
	e.Observe(20)
	if e.Value() != 15 {
		t.Fatalf("EMA = %v, want 15", e.Value())
	}
}

// Property: the rank-based AUC equals the brute-force pair statistic
// (fraction of positive-negative pairs ranked correctly, ties = 1/2).
func TestPropertyAUCMatchesBruteForce(t *testing.T) {
	brute := func(scores []float64, labels []int) float64 {
		var num, den float64
		for i := range scores {
			if labels[i] != 1 {
				continue
			}
			for j := range scores {
				if labels[j] != 0 {
					continue
				}
				den++
				switch {
				case scores[i] > scores[j]:
					num++
				case scores[i] == scores[j]:
					num += 0.5
				}
			}
		}
		if den == 0 {
			return 0.5
		}
		return num / den
	}
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 2 + rng.Intn(40)
		scores := make([]float64, n)
		labels := make([]int, n)
		for i := range scores {
			// Quantized scores to force ties frequently.
			scores[i] = float64(rng.Intn(6)) / 5
			labels[i] = rng.Intn(2)
		}
		return math.Abs(AUC(scores, labels)-brute(scores, labels)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Quantile is monotone in q and bounded by min/max.
func TestPropertyQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n := 1 + rng.Intn(50)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 10
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(vals, q)
			if v < prev-1e-12 {
				return false
			}
			prev = v
		}
		lo, hi := Quantile(vals, 0), Quantile(vals, 1)
		for _, v := range vals {
			if v < lo || v > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNonFiniteInputs(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Observe(math.NaN())
	if h.Total() != 0 {
		t.Fatalf("NaN was counted: total = %d, counts = %v", h.Total(), h.Counts)
	}
	h.Observe(math.Inf(1))
	if h.Counts[9] != 1 {
		t.Fatalf("+Inf must clamp to the last bucket: %v", h.Counts)
	}
	h.Observe(math.Inf(-1))
	if h.Counts[0] != 1 {
		t.Fatalf("-Inf must clamp to the first bucket: %v", h.Counts)
	}
	if h.Total() != 2 {
		t.Fatalf("total = %d, want 2", h.Total())
	}
	// The exact upper edge belongs to the last bucket, never out of range.
	h.Observe(10)
	if h.Counts[9] != 2 {
		t.Fatalf("max edge must land in the last bucket: %v", h.Counts)
	}
}

func TestLatencyTrackerWrapKeepsWindowStats(t *testing.T) {
	// Regression for the removal of the dead `full` flag: wrapping the
	// window must keep Count/Mean over all samples while quantiles reflect
	// only the retained window.
	tr := NewLatencyTracker(4)
	for i := 1; i <= 8; i++ {
		tr.Observe(float64(i))
	}
	if tr.Count() != 8 {
		t.Fatalf("count = %d, want 8", tr.Count())
	}
	if got, want := tr.Mean(), 4.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", got, want)
	}
	// Window retains {5,6,7,8}.
	if got := tr.P50(); got < 5 || got > 8 {
		t.Fatalf("P50 = %v, want within retained window [5,8]", got)
	}
	if s := tr.Samples(); len(s) != 4 {
		t.Fatalf("retained %d samples, want 4", len(s))
	}
}
