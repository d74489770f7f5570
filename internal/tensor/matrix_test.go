package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected shape %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("new matrix not zeroed")
		}
	}
}

func TestAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if m.At(1, 2) != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", m.At(1, 2))
	}
	row := m.Row(1)
	if row[2] != 7.5 {
		t.Fatalf("Row(1)[2] = %v, want 7.5", row[2])
	}
	row[0] = 3 // aliasing
	if m.At(1, 0) != 3 {
		t.Fatal("Row must alias matrix storage")
	}
}

// product returns a × b in a new matrix.
func product(a, b *Matrix) *Matrix {
	c := NewMatrix(a.Rows, b.Cols)
	MatMulInto(c, a, b)
	return c
}

func TestMatMulKnown(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewMatrixFrom(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := NewMatrix(2, 2)
	MatMulInto(c, a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("c.Data[%d] = %v, want %v", i, c.Data[i], v)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := NewRNG(1)
	a := RandomMatrix(rng, 5, 5, 1)
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	c := NewMatrix(5, 5)
	MatMulInto(c, a, id)
	for i := range a.Data {
		if !almostEqual(c.Data[i], a.Data[i], 1e-12) {
			t.Fatalf("A*I != A at %d: %v vs %v", i, c.Data[i], a.Data[i])
		}
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	MatMulInto(NewMatrix(2, 3), NewMatrix(2, 3), NewMatrix(2, 3))
}

func TestTransposeInvolution(t *testing.T) {
	rng := NewRNG(2)
	a := RandomMatrix(rng, 4, 7, 1)
	tt := a.T().T()
	for i := range a.Data {
		if a.Data[i] != tt.Data[i] {
			t.Fatal("transpose is not an involution")
		}
	}
}

func TestMatVec(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 0, 2, 0, 3, 0})
	y := make([]float64, 2)
	MatVecInto(y, a, []float64{1, 2, 3})
	if y[0] != 7 || y[1] != 6 {
		t.Fatalf("MatVec = %v, want [7 6]", y)
	}
}

func TestMatVecInto(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 0, 2, 0, 3, 0})
	dst := []float64{99, 99} // stale values must be overwritten, not accumulated
	MatVecInto(dst, a, []float64{1, 2, 3})
	if dst[0] != 7 || dst[1] != 6 {
		t.Fatalf("MatVecInto = %v, want [7 6]", dst)
	}
	x := []float64{1, 2, 3}
	if n := testing.AllocsPerRun(100, func() {
		MatVecInto(dst, a, x)
	}); n != 0 {
		t.Fatalf("MatVecInto allocates %v per run, want 0", n)
	}
}

func TestMatVecIntoPanics(t *testing.T) {
	a := NewMatrixFrom(2, 3, []float64{1, 0, 2, 0, 3, 0})
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("bad x", func() { MatVecInto(make([]float64, 2), a, []float64{1, 2}) })
	mustPanic("bad dst", func() { MatVecInto(make([]float64, 3), a, []float64{1, 2, 3}) })
}

func TestReLUInPlace(t *testing.T) {
	x := []float64{-1, 0, 2.5, -0.001, 7}
	ReLUInPlace(x)
	want := []float64{0, 0, 2.5, 0, 7}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("ReLUInPlace = %v, want %v", x, want)
		}
	}
}

func TestAddSubScaleAXPY(t *testing.T) {
	a := NewMatrixFrom(1, 3, []float64{1, 2, 3})
	b := NewMatrixFrom(1, 3, []float64{4, 5, 6})
	a.Add(b)
	if a.Data[0] != 5 || a.Data[2] != 9 {
		t.Fatalf("Add wrong: %v", a.Data)
	}
	a.Sub(b)
	if a.Data[0] != 1 || a.Data[2] != 3 {
		t.Fatalf("Sub wrong: %v", a.Data)
	}
	a.Scale(2)
	if a.Data[1] != 4 {
		t.Fatalf("Scale wrong: %v", a.Data)
	}
	a.AXPY(0.5, b)
	if a.Data[0] != 4 {
		t.Fatalf("AXPY wrong: %v", a.Data)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewMatrixFrom(1, 2, []float64{1, 2})
	c := a.Clone()
	c.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestDotAndNorm(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot wrong")
	}
	if !almostEqual(Norm2([]float64{3, 4}), 5, 1e-15) {
		t.Fatal("Norm2 wrong")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m := NewMatrixFrom(2, 2, []float64{1, 2, 2, 4})
	if !almostEqual(m.FrobeniusNorm(), 5, 1e-12) {
		t.Fatalf("frobenius = %v, want 5", m.FrobeniusNorm())
	}
}

func TestMaxAbs(t *testing.T) {
	m := NewMatrixFrom(1, 3, []float64{-7, 2, 3})
	if m.MaxAbs() != 7 {
		t.Fatalf("MaxAbs = %v, want 7", m.MaxAbs())
	}
	if NewMatrix(0, 0).MaxAbs() != 0 {
		t.Fatal("MaxAbs of empty must be 0")
	}
}

func TestXavierMatrixBounds(t *testing.T) {
	rng := NewRNG(3)
	m := XavierMatrix(rng, 8, 8)
	limit := math.Sqrt(6.0 / 16.0)
	for _, v := range m.Data {
		if math.Abs(v) > limit {
			t.Fatalf("xavier value %v exceeds limit %v", v, limit)
		}
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestPropertyMatMulTranspose(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a := RandomMatrix(rng, m, k, 1)
		b := RandomMatrix(rng, k, n, 1)
		lhs := product(a, b).T()
		rhs := product(b.T(), a.T())
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matmul distributes over addition: A(B+C) == AB + AC.
func TestPropertyMatMulDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandomMatrix(rng, m, k, 1)
		b := RandomMatrix(rng, k, n, 1)
		c := RandomMatrix(rng, k, n, 1)
		sum := b.Clone()
		sum.Add(c)
		lhs := product(a, sum)
		rhs := product(a, b)
		rhs.Add(product(a, c))
		for i := range lhs.Data {
			if !almostEqual(lhs.Data[i], rhs.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
	c := NewRNG(43)
	if NewRNG(42).Uint64() == c.Uint64() {
		t.Fatal("different seeds should produce different streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(11)
	n := 50000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestRNGPerm(t *testing.T) {
	rng := NewRNG(5)
	p := rng.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(9)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children should differ")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := NewRNG(13)
	z := NewZipf(rng, 1000, 1.1)
	counts := make([]int, 1000)
	n := 100000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	// Item 0 must be sampled far more than item 999.
	if counts[0] < 50*counts[999]+1 {
		t.Fatalf("zipf not skewed: head %d tail %d", counts[0], counts[999])
	}
	// Top 10% of items should dominate accesses (paper Fig 12: ~90%+).
	top := 0
	for i := 0; i < 100; i++ {
		top += counts[i]
	}
	if float64(top)/float64(n) < 0.60 {
		t.Fatalf("top-10%% share %v too low for s=1.1", float64(top)/float64(n))
	}
}

func TestZipfBounds(t *testing.T) {
	rng := NewRNG(17)
	z := NewZipf(rng, 10, 1.0)
	if z.N() != 10 {
		t.Fatalf("N = %d, want 10", z.N())
	}
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 10 {
			t.Fatalf("zipf sample out of range: %d", v)
		}
	}
}
