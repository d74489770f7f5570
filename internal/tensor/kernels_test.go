package tensor

import (
	"math"
	"strings"
	"testing"
)

// mustPanic runs f and asserts it panics with a message containing every
// fragment in want.
func mustPanic(t *testing.T, name string, want []string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: expected panic, got none", name)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("%s: panic value %v is not a string", name, r)
		}
		for _, w := range want {
			if !strings.Contains(msg, w) {
				t.Errorf("%s: panic %q missing fragment %q", name, msg, w)
			}
		}
	}()
	f()
}

// TestKernelGuards is the satellite-2 table: every shape-mismatch path of the
// matvec/matmul kernels must panic with both operand shapes in the message,
// and dst aliasing x must be rejected.
func TestKernelGuards(t *testing.T) {
	a := RandomMatrix(NewRNG(1), 3, 4, 1)
	sq := RandomMatrix(NewRNG(2), 4, 4, 1)

	cases := []struct {
		name string
		want []string
		f    func()
	}{
		{"matvec x too short", []string{"matvec", "a=3x4", "x=3", "len(x) must equal a.Cols"},
			func() { MatVecInto(make([]float64, 3), a, make([]float64, 3)) }},
		{"matvec x too long", []string{"matvec", "a=3x4", "x=5", "len(x) must equal a.Cols"},
			func() { MatVecInto(make([]float64, 3), a, make([]float64, 5)) }},
		{"matvec dst wrong", []string{"matvec", "a=3x4", "dst=2", "len(dst) must equal a.Rows"},
			func() { MatVecInto(make([]float64, 2), a, make([]float64, 4)) }},
		{"matvec ref x wrong", []string{"matvec", "a=3x4", "x=5"},
			func() { MatVecRefInto(make([]float64, 3), a, make([]float64, 5)) }},
		{"matvec ref dst wrong", []string{"matvec", "a=3x4", "dst=4"},
			func() { MatVecRefInto(make([]float64, 4), a, make([]float64, 4)) }},
		{"matvec dst aliases x", []string{"matvec", "a=4x4", "dst must not alias x"},
			func() { buf := make([]float64, 4); MatVecInto(buf, sq, buf) }},
		{"matvec ref dst aliases x", []string{"matvec", "dst must not alias x"},
			func() { buf := make([]float64, 4); MatVecRefInto(buf, sq, buf) }},
		{"matvec x too short", []string{"matvec", "a=3x4", "x=2", "len(x) must equal a.Cols"},
			func() { MatVecInto(make([]float64, 3), a, make([]float64, 2)) }},
		{"matmul inner mismatch", []string{"matmul", "a=3x4", "b=3x4", "inner dimensions"},
			func() { MatMulInto(NewMatrix(3, 4), a, a) }},
		{"matmul dst wrong", []string{"matmul", "a=3x4", "b=4x4", "dst=3x3", "must be 3x4"},
			func() { MatMulInto(NewMatrix(3, 3), a, sq) }},
		{"matmul dst aliases a", []string{"matmul", "dst must not alias a"},
			func() { MatMulInto(sq, sq, sq) }},
		{"matmul dst aliases b", []string{"matmul", "dst must not alias b"},
			func() { MatMulInto(sq, RandomMatrix(NewRNG(3), 4, 4, 1), sq) }},
		{"matmulT inner mismatch", []string{"matmulT", "a=3x4", "b=4x5", "inner dimensions"},
			func() { MatMulTransInto(NewMatrix(3, 4), a, RandomMatrix(NewRNG(4), 4, 5, 1)) }},
		{"matmulT dst wrong", []string{"matmulT", "a=3x4", "b=4x4", "dst=3x3", "must be 3x4"},
			func() { MatMulTransInto(NewMatrix(3, 3), a, sq) }},
		{"matmulT dst aliases a", []string{"matmulT", "dst must not alias a"},
			func() { MatMulTransInto(sq, sq, RandomMatrix(NewRNG(5), 4, 4, 1)) }},
		{"qmatvec x wrong", []string{"qmatvec", "a=3x4", "x=3", "len(x) must equal a.Cols"},
			func() { Quantize(a).MatVecInto(make([]float64, 3), make([]int8, 3), 1) }},
		{"qmatvec dst wrong", []string{"qmatvec", "a=3x4", "dst=2", "len(dst) must equal a.Rows"},
			func() { Quantize(a).MatVecInto(make([]float64, 2), make([]int8, 4), 1) }},
		{"quantize vector mismatch", []string{"quantize vector", "xq=3", "x=4"},
			func() { QuantizeVectorInto(make([]int8, 3), make([]float64, 4)) }},
	}
	for _, tc := range cases {
		mustPanic(t, tc.name, tc.want, tc.f)
	}
}

// kernelShapes are the satellite-3 odd shapes: degenerate vectors, prime
// dimensions straddling the unroll widths, and zero-size edges.
var kernelShapes = []struct{ rows, cols int }{
	{1, 7}, // 1xN
	{7, 1}, // Nx1
	{1, 1},
	{3, 5},   // both below unroll width
	{4, 4},   // exact block
	{5, 4},   // block + remainder row
	{13, 17}, // prime dims
	{31, 29},
	{64, 16}, // bench-profile bottom layer
	{0, 5},   // zero rows
	{5, 0},   // zero cols
	{0, 0},
}

// TestKernelBlockedMatchesReference: the blocked/unrolled kernels must match
// the naive scalar reference bit-for-bit on every shape and seed.
func TestKernelBlockedMatchesReference(t *testing.T) {
	for seed := 0; seed < 5; seed++ {
		rng := NewRNG(uint64(seed))
		for _, sh := range kernelShapes {
			a := RandomMatrix(rng, sh.rows, sh.cols, 1)
			x := make([]float64, sh.cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}

			want := make([]float64, sh.rows)
			got := make([]float64, sh.rows)
			MatVecRefInto(want, a, x)
			MatVecInto(got, a, x)
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("matvec %dx%d seed %d row %d: blocked %v != ref %v",
						sh.rows, sh.cols, seed, i, got[i], want[i])
				}
			}

			// MatMulTransInto row i must equal MatVecInto(b, a.Row(i)) exactly:
			// batched inference must be bit-identical to per-sample matvecs.
			b := RandomMatrix(rng, 11, sh.cols, 1) // 11 rows: odd, exercises tile remainder
			batch := NewMatrix(sh.rows, 11)
			MatMulTransInto(batch, a, b)
			rowOut := make([]float64, 11)
			for i := 0; i < sh.rows; i++ {
				MatVecInto(rowOut, b, a.Row(i))
				for o, v := range rowOut {
					if batch.Row(i)[o] != v {
						t.Fatalf("matmulT %dx%d seed %d (%d,%d): batched %v != matvec %v",
							sh.rows, sh.cols, seed, i, o, batch.Row(i)[o], v)
					}
				}
			}

			// MatMulInto vs a scalar ikj reference with the same accumulation order.
			c := RandomMatrix(rng, sh.cols, 9, 1)
			ref := NewMatrix(sh.rows, 9)
			for i := 0; i < sh.rows; i++ {
				arow := a.Row(i)
				crow := ref.Row(i)
				for k, av := range arow {
					brow := c.Row(k)
					for j, bv := range brow {
						crow[j] += av * bv
					}
				}
			}
			mm := NewMatrix(sh.rows, 9)
			MatMulInto(mm, a, c)
			for i, v := range ref.Data {
				if mm.Data[i] != v {
					t.Fatalf("matmul %dx%d seed %d elem %d: unrolled %v != ref %v",
						sh.rows, sh.cols, seed, i, mm.Data[i], v)
				}
			}
		}
	}
}

// TestKernelQuantizedWithinTolerance: the int8 path must track the float
// reference within the combined row/activation quantization error bound.
func TestKernelQuantizedWithinTolerance(t *testing.T) {
	for seed := 0; seed < 5; seed++ {
		rng := NewRNG(uint64(100 + seed))
		for _, sh := range kernelShapes {
			a := RandomMatrix(rng, sh.rows, sh.cols, 1)
			x := make([]float64, sh.cols)
			xAbs := 0.0
			for i := range x {
				x[i] = rng.NormFloat64()
				if v := math.Abs(x[i]); v > xAbs {
					xAbs = v
				}
			}

			q := Quantize(a)
			xq := make([]int8, sh.cols)
			sx := QuantizeVectorInto(xq, x)

			want := make([]float64, sh.rows)
			got := make([]float64, sh.rows)
			MatVecRefInto(want, a, x)
			q.MatVecInto(got, xq, sx)

			for i := range want {
				// Each term carries at most scale/2 error from the weight and
				// sx/2 from the activation (plus their product); bound the row
				// error by n * (sw*xmax + sx*wmax + sw*sx) / 2-ish with slack.
				wmax := q.Scale[i] * 127
				bound := float64(sh.cols)*(q.Scale[i]*xAbs+sx*wmax+q.Scale[i]*sx) + 1e-12
				if diff := math.Abs(want[i] - got[i]); diff > bound {
					t.Fatalf("qmatvec %dx%d seed %d row %d: |%v - %v| = %v > bound %v",
						sh.rows, sh.cols, seed, i, got[i], want[i], diff, bound)
				}
			}
		}
	}
}

// TestQuantizeRoundTrip: quantization error per element is at most half a
// quantization step, and zero rows/vectors quantize exactly.
func TestQuantizeRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	m := RandomMatrix(rng, 9, 13, 1)
	for j := 0; j < m.Cols; j++ { // zero out one row entirely
		m.Row(4)[j] = 0
	}
	q := Quantize(m)
	if q.Scale[4] != 0 {
		t.Fatalf("zero row scale = %v, want 0", q.Scale[4])
	}
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			back := float64(q.Row(i)[j]) * q.Scale[i]
			if diff := math.Abs(v - back); diff > q.Scale[i]/2+1e-15 {
				t.Fatalf("round trip (%d,%d): |%v - %v| > scale/2 = %v", i, j, v, back, q.Scale[i]/2)
			}
		}
	}

	zero := make([]float64, 8)
	zq := make([]int8, 8)
	if s := QuantizeVectorInto(zq, zero); s != 0 {
		t.Fatalf("zero vector scale = %v, want 0", s)
	}
	for _, v := range zq {
		if v != 0 {
			t.Fatalf("zero vector quantized to %v", zq)
		}
	}
}

// TestTruncateF16 checks the mantissa-truncation semantics: exactly
// representable halves survive, low mantissa bits are dropped, and the
// matrix helper applies it elementwise without touching the input.
func TestTruncateF16(t *testing.T) {
	for _, v := range []float64{0, 1, -1, 0.5, 2048, -3.25} {
		if got := TruncateF16(v); got != v {
			t.Fatalf("TruncateF16(%v) = %v, want unchanged", v, got)
		}
	}
	v := 1.0 + 1.0/2048 // needs 11 mantissa bits: must truncate back to 1
	if got := TruncateF16(v); got != 1.0 {
		t.Fatalf("TruncateF16(%v) = %v, want 1", v, got)
	}
	if got := TruncateF16(math.Pi); got == math.Pi || math.Abs(got-math.Pi) > 1e-3 {
		t.Fatalf("TruncateF16(pi) = %v", got)
	}

	rng := NewRNG(11)
	m := RandomMatrix(rng, 5, 5, 1)
	orig := append([]float64(nil), m.Data...)
	tm := TruncateF16Matrix(m)
	for i, v := range m.Data {
		if v != orig[i] {
			t.Fatal("TruncateF16Matrix mutated its input")
		}
		if tm.Data[i] != TruncateF16(v) {
			t.Fatalf("elem %d: %v != TruncateF16(%v)", i, tm.Data[i], v)
		}
	}
}

func BenchmarkMatVecScalar(b *testing.B) {
	rng := NewRNG(1)
	a := RandomMatrix(rng, 64, 64, 1)
	x := make([]float64, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecRefInto(dst, a, x)
	}
}

func BenchmarkMatVecBlocked(b *testing.B) {
	rng := NewRNG(1)
	a := RandomMatrix(rng, 64, 64, 1)
	x := make([]float64, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVecInto(dst, a, x)
	}
}

func BenchmarkMatVecQuantized(b *testing.B) {
	rng := NewRNG(1)
	a := RandomMatrix(rng, 64, 64, 1)
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	q := Quantize(a)
	xq := make([]int8, 64)
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sx := QuantizeVectorInto(xq, x)
		q.MatVecInto(dst, xq, sx)
	}
}

func BenchmarkMatMulTransBatch16(b *testing.B) {
	rng := NewRNG(1)
	w := RandomMatrix(rng, 64, 64, 1)
	x := RandomMatrix(rng, 16, 64, 1)
	dst := NewMatrix(16, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransInto(dst, x, w)
	}
}
