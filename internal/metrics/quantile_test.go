package metrics

import (
	"encoding/binary"
	"math"
	"sort"
	"testing"

	"liveupdate/internal/tensor"
)

// sortQuantile is the sort-based formulation Quantile must reproduce:
// interpolate between the bracketing ranks of a sort.Float64s-sorted copy.
func sortQuantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sameQuantile reports whether two quantile results are bit-identical, with
// the two freedoms the sorted reference itself has: any NaN matches any NaN
// (sort.Float64s does not order NaN payloads) and -0 matches +0 (nor signed
// zeros).
func sameQuantile(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if a == 0 && b == 0 {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

func encodeFloats(vals []float64) []byte {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return buf
}

func decodeFloats(buf []byte) []float64 {
	vals := make([]float64, len(buf)/8)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return vals
}

// FuzzQuantile checks Quantile against the sorted reference on arbitrary
// float64 windows (raw bit patterns, so NaN payloads, ±Inf, ±0, subnormals
// and duplicates all occur) and arbitrary q, including q outside [0, 1].
func FuzzQuantile(f *testing.F) {
	for _, c := range quantileCases {
		f.Add(encodeFloats(c.vals), c.q)
	}
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(encodeFloats([]float64{7}), 0.99)
	f.Add(encodeFloats([]float64{nan, 1, nan, -inf, inf, 0, math.Copysign(0, -1)}), 0.5)
	f.Add(encodeFloats([]float64{3, 3, 3, 3, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 1, 1, 2, 3, 1}), 0.99)
	f.Add(encodeFloats([]float64{inf, -inf}), 0.5)
	f.Add(encodeFloats([]float64{nan}), 0.3)
	f.Add([]byte{}, -inf)
	f.Fuzz(func(t *testing.T, raw []byte, q float64) {
		if math.IsNaN(q) {
			t.Skip("NaN q has no rank")
		}
		vals := decodeFloats(raw)
		orig := append([]float64(nil), vals...)
		got, want := Quantile(vals, q), sortQuantile(vals, q)
		if !sameQuantile(got, want) {
			t.Fatalf("Quantile(%v, %v) = %v (%#x), sorted reference %v (%#x)",
				vals, q, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for i := range vals {
			if math.Float64bits(vals[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("Quantile reordered its input at %d", i)
			}
		}
	})
}

// TestQuantileMatchesSort is the fuzz property at scale on every go test run:
// random windows up to well past the selection cutoff, drawn from small value
// alphabets (heavy duplication) or a wide range, salted with NaN and ±Inf.
func TestQuantileMatchesSort(t *testing.T) {
	rng := tensor.NewRNG(99)
	qs := []float64{0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1, -0.5, 1.5}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	tr := NewLatencyTracker(4096)
	for iter := 0; iter < 2000; iter++ {
		n := 1 + rng.Intn(300)
		if iter%50 == 0 {
			n = 4096
		}
		alphabet := 0
		if iter%2 == 0 {
			alphabet = 1 + rng.Intn(8)
		}
		vals := make([]float64, n)
		for i := range vals {
			switch {
			case iter%3 == 0 && rng.Intn(20) == 0:
				vals[i] = specials[rng.Intn(len(specials))]
			case alphabet > 0:
				vals[i] = float64(rng.Intn(alphabet))
			default:
				vals[i] = rng.NormFloat64() * 1e3
			}
		}
		tr.Reset()
		for _, v := range vals {
			tr.Observe(v)
		}
		for _, q := range qs {
			want := sortQuantile(vals, q)
			if got := Quantile(vals, q); !sameQuantile(got, want) {
				t.Fatalf("iter %d n %d q %v: Quantile = %v, sorted reference %v", iter, n, q, got, want)
			}
			if got := tr.QuantileOf(q); !sameQuantile(got, want) {
				t.Fatalf("iter %d n %d q %v: tracker QuantileOf = %v, sorted reference %v", iter, n, q, got, want)
			}
		}
	}
}

// TestSelectKthAdversarialOrders exercises inputs that defeat a
// median-of-three pivot (sorted, reversed, organ-pipe, all-equal), where the
// partition budget hands the range to the sort fallback.
func TestSelectKthAdversarialOrders(t *testing.T) {
	const n = 2000
	orders := map[string]func(i int) float64{
		"sorted":     func(i int) float64 { return float64(i) },
		"reversed":   func(i int) float64 { return float64(n - i) },
		"organ pipe": func(i int) float64 { return float64(min(i, n-1-i)) },
		"all equal":  func(int) float64 { return 42 },
		"sawtooth":   func(i int) float64 { return float64(i % 17) },
	}
	for name, gen := range orders {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = gen(i)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got, want := Quantile(vals, q), sortQuantile(vals, q); !sameQuantile(got, want) {
				t.Fatalf("%s q %v: Quantile = %v, sorted reference %v", name, q, got, want)
			}
		}
	}
}

// TestLatencyTrackerQuantileZeroAlloc pins the per-train-tick P99 read at
// zero allocations: once the scratch has grown to the window, P99 over a full
// 4096-sample tracker reuses it.
func TestLatencyTrackerQuantileZeroAlloc(t *testing.T) {
	tr := NewLatencyTracker(4096)
	rng := tensor.NewRNG(5)
	for i := 0; i < 5000; i++ {
		tr.Observe(rng.Float64())
	}
	tr.P99() // warm-up: grows the scratch once
	if allocs := testing.AllocsPerRun(100, func() { _ = tr.P99() }); allocs != 0 {
		t.Fatalf("P99 on a full window allocates %v times per call, want 0", allocs)
	}
}
