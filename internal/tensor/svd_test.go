package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// reconstruct computes U·diag(S)·Vᵀ.
func reconstruct(s *SVD) *Matrix {
	n := len(s.S)
	us := s.U.Clone()
	for i := 0; i < us.Rows; i++ {
		row := us.Row(i)
		for j := 0; j < n; j++ {
			row[j] *= s.S[j]
		}
	}
	return product(us, s.V.T())
}

func TestSVDReconstructionSmall(t *testing.T) {
	a := NewMatrixFrom(3, 2, []float64{1, 2, 3, 4, 5, 6})
	s := ComputeSVD(a)
	r := reconstruct(s)
	for i := range a.Data {
		if !almostEqual(r.Data[i], a.Data[i], 1e-9) {
			t.Fatalf("reconstruction mismatch at %d: %v vs %v", i, r.Data[i], a.Data[i])
		}
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	rng := NewRNG(21)
	a := RandomMatrix(rng, 20, 8, 1)
	s := ComputeSVD(a)
	for i := 1; i < len(s.S); i++ {
		if s.S[i] > s.S[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", s.S)
		}
	}
	for _, v := range s.S {
		if v < 0 {
			t.Fatalf("negative singular value %v", v)
		}
	}
}

func TestSVDOrthonormalV(t *testing.T) {
	rng := NewRNG(22)
	a := RandomMatrix(rng, 10, 6, 1)
	s := ComputeSVD(a)
	vtv := product(s.V.T(), s.V)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if !almostEqual(vtv.At(i, j), want, 1e-8) {
				t.Fatalf("VᵀV[%d][%d] = %v, want %v", i, j, vtv.At(i, j), want)
			}
		}
	}
}

func TestSVDWideMatrix(t *testing.T) {
	rng := NewRNG(23)
	a := RandomMatrix(rng, 4, 9, 1) // m < n path
	s := ComputeSVD(a)
	r := reconstruct(s)
	if r.Rows != 4 || r.Cols != 9 {
		t.Fatalf("wide reconstruction shape %dx%d", r.Rows, r.Cols)
	}
	for i := range a.Data {
		if !almostEqual(r.Data[i], a.Data[i], 1e-8) {
			t.Fatal("wide-matrix reconstruction mismatch")
		}
	}
}

func TestSVDKnownDiagonal(t *testing.T) {
	a := NewMatrixFrom(3, 3, []float64{3, 0, 0, 0, 2, 0, 0, 0, 1})
	s := ComputeSVD(a)
	want := []float64{3, 2, 1}
	for i, w := range want {
		if !almostEqual(s.S[i], w, 1e-10) {
			t.Fatalf("S[%d] = %v, want %v", i, s.S[i], w)
		}
	}
}

func TestSVDRankDeficient(t *testing.T) {
	// Rank-1 matrix: outer product.
	a := NewMatrix(4, 3)
	u := []float64{1, 2, 3, 4}
	v := []float64{1, 1, 2}
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, u[i]*v[j])
		}
	}
	s := ComputeSVD(a)
	if got := s.Rank(1e-9); got != 1 {
		t.Fatalf("rank = %d, want 1 (S=%v)", got, s.S)
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	s := ComputeSVD(NewMatrix(3, 3))
	for _, v := range s.S {
		if v != 0 {
			t.Fatalf("zero matrix should have zero spectrum: %v", s.S)
		}
	}
	if s.Rank(1e-9) != 0 {
		t.Fatal("zero matrix rank must be 0")
	}
}

// Property: SVD reconstruction error is tiny relative to the matrix norm.
func TestPropertySVDReconstruction(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, n := 2+rng.Intn(12), 2+rng.Intn(8)
		a := RandomMatrix(rng, m, n, 2)
		s := ComputeSVD(a)
		r := reconstruct(s)
		r.Sub(a)
		return r.FrobeniusNorm() <= 1e-7*(1+a.FrobeniusNorm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property (Eckart–Young): the rank-k truncation error equals
// sqrt(sum of squared discarded singular values).
func TestPropertyEckartYoung(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, n := 3+rng.Intn(10), 3+rng.Intn(6)
		a := RandomMatrix(rng, m, n, 1)
		s := ComputeSVD(a)
		k := 1 + rng.Intn(minInt(m, n))
		left, right := TruncatedSVD(a, k)
		approx := product(left, right)
		approx.Sub(a)
		got := approx.FrobeniusNorm()
		want := 0.0
		for i := k; i < len(s.S); i++ {
			want += s.S[i] * s.S[i]
		}
		want = math.Sqrt(want)
		return almostEqual(got, want, 1e-6*(1+a.FrobeniusNorm()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTruncatedSVDShapes(t *testing.T) {
	rng := NewRNG(31)
	a := RandomMatrix(rng, 10, 6, 1)
	left, right := TruncatedSVD(a, 3)
	if left.Rows != 10 || left.Cols != 3 || right.Rows != 3 || right.Cols != 6 {
		t.Fatalf("bad shapes left %dx%d right %dx%d", left.Rows, left.Cols, right.Rows, right.Cols)
	}
	// k beyond min dim clamps.
	left, right = TruncatedSVD(a, 99)
	if left.Cols != 6 || right.Rows != 6 {
		t.Fatalf("clamping failed: left cols %d", left.Cols)
	}
	// k = 0 gives empty factors.
	left, right = TruncatedSVD(a, 0)
	if left.Cols != 0 || right.Rows != 0 {
		t.Fatal("k=0 should yield empty factors")
	}
}

func TestVarianceRank(t *testing.T) {
	s := []float64{3, 2, 1}                    // squared: 9, 4, 1; total 14
	if got := VarianceRank(s, 0.5); got != 1 { // 9/14 = 0.64 >= 0.5
		t.Fatalf("VarianceRank(0.5) = %d, want 1", got)
	}
	if got := VarianceRank(s, 0.9); got != 2 { // 13/14 = 0.93
		t.Fatalf("VarianceRank(0.9) = %d, want 2", got)
	}
	if got := VarianceRank(s, 0.99); got != 3 {
		t.Fatalf("VarianceRank(0.99) = %d, want 3", got)
	}
	if got := VarianceRank(nil, 0.8); got != 1 {
		t.Fatalf("VarianceRank(nil) = %d, want 1", got)
	}
	if got := VarianceRank([]float64{0, 0}, 0.8); got != 1 {
		t.Fatalf("VarianceRank(zeros) = %d, want 1", got)
	}
}

func TestPCALowRankData(t *testing.T) {
	// Generate data that lies (noisily) in a 2-D subspace of R^8.
	rng := NewRNG(41)
	d := 8
	b1 := make([]float64, d)
	b2 := make([]float64, d)
	for j := 0; j < d; j++ {
		b1[j] = rng.NormFloat64()
		b2[j] = rng.NormFloat64()
	}
	n := 200
	data := NewMatrix(n, d)
	for i := 0; i < n; i++ {
		c1, c2 := rng.NormFloat64()*3, rng.NormFloat64()*2
		row := data.Row(i)
		for j := 0; j < d; j++ {
			row[j] = c1*b1[j] + c2*b2[j] + rng.NormFloat64()*0.01
		}
	}
	pca := ComputePCA(data)
	if k := pca.MinRankForVariance(0.95); k > 2 {
		t.Fatalf("2-D data needed rank %d for 95%% variance", k)
	}
	ci := pca.CumulativeImportance()
	if ci[len(ci)-1] < 0.999 {
		t.Fatalf("cumulative importance must end at 1, got %v", ci[len(ci)-1])
	}
	for i := 1; i < len(ci); i++ {
		if ci[i] < ci[i-1]-1e-12 {
			t.Fatal("cumulative importance must be non-decreasing")
		}
	}
}

func TestPCAMeanInvariance(t *testing.T) {
	// Adding a constant offset to all rows must not change eigenvalues.
	rng := NewRNG(43)
	a := RandomMatrix(rng, 50, 5, 1)
	shifted := a.Clone()
	for i := 0; i < shifted.Rows; i++ {
		row := shifted.Row(i)
		for j := range row {
			row[j] += 100
		}
	}
	p1 := ComputePCA(a)
	p2 := ComputePCA(shifted)
	for i := range p1.Eigenvalues {
		if !almostEqual(p1.Eigenvalues[i], p2.Eigenvalues[i], 1e-6*(1+p1.Eigenvalues[0])) {
			t.Fatalf("eigenvalue %d changed under mean shift: %v vs %v",
				i, p1.Eigenvalues[i], p2.Eigenvalues[i])
		}
	}
}

func TestPCAZeroVariance(t *testing.T) {
	a := NewMatrix(10, 4) // all-zero data
	p := ComputePCA(a)
	ci := p.CumulativeImportance()
	for _, v := range ci {
		if v != 1 {
			t.Fatalf("zero-variance CI should be all 1s, got %v", ci)
		}
	}
	if k := p.MinRankForVariance(0.8); k != 1 {
		t.Fatalf("zero-variance min rank = %d, want 1", k)
	}
}
