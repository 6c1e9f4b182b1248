package sparse

import (
	"math"
	"testing"
	"testing/quick"
)

func TestAddMatchesDense(t *testing.T) {
	a := Generate(Gen{Name: "a", Class: PatternRandom, N: 60, NNZTarget: 400, Seed: 41})
	b := Generate(Gen{Name: "b", Class: PatternBanded, N: 60, NNZTarget: 400, Seed: 42})
	sum, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if err := sum.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		for j := 0; j < 60; j++ {
			want := a.At(i, j) + b.At(i, j)
			if got := sum.At(i, j); math.Abs(got-want) > 1e-12 {
				t.Fatalf("(%d,%d): %v != %v", i, j, got, want)
			}
		}
	}
}

func TestAddDimensionMismatch(t *testing.T) {
	if _, err := Add(Identity(3), Identity(4)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestScaleValues(t *testing.T) {
	m := Identity(4)
	m.ScaleValues(2.5)
	for i := 0; i < 4; i++ {
		if m.At(i, i) != 2.5 {
			t.Fatal("scaling broken")
		}
	}
}

func TestDiagonal(t *testing.T) {
	m := Laplacian2D(5)
	d, err := m.Diagonal()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range d {
		if v != 4 {
			t.Fatalf("diag[%d] = %v, want 4", i, v)
		}
	}
	rect := &CSR{Rows: 2, Cols: 3, Ptr: []int32{0, 0, 0}}
	if _, err := rect.Diagonal(); err == nil {
		t.Fatal("rectangular diagonal accepted")
	}
}

func TestAddDiagonalShiftsSpectrumAnchor(t *testing.T) {
	m := Laplacian2D(4)
	shifted, err := AddDiagonal(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := shifted.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < shifted.Rows; i++ {
		if got := shifted.At(i, i); got != 7 {
			t.Fatalf("diag[%d] = %v, want 7", i, got)
		}
	}
	// Off-diagonals untouched.
	if shifted.At(0, 1) != -1 {
		t.Fatal("off-diagonal changed")
	}
	rect := &CSR{Rows: 2, Cols: 3, Ptr: []int32{0, 0, 0}}
	if _, err := AddDiagonal(rect, 1); err == nil {
		t.Fatal("rectangular AddDiagonal accepted")
	}
}

func TestNorms(t *testing.T) {
	// [[3, -4], [0, 2]]: Frobenius sqrt(29), inf-norm 7, 1-norm 6.
	coo := NewCOO(2, 2, 3)
	coo.Append(0, 0, 3)
	coo.Append(0, 1, -4)
	coo.Append(1, 1, 2)
	m := coo.ToCSR()
	if got := m.NormFrobenius(); math.Abs(got-math.Sqrt(29)) > 1e-12 {
		t.Fatalf("frobenius = %v", got)
	}
	if got := m.NormInf(); got != 7 {
		t.Fatalf("inf norm = %v", got)
	}
	if got := m.Norm1(); got != 6 {
		t.Fatalf("1-norm = %v", got)
	}
}

func TestNorm1EqualsInfOfTranspose(t *testing.T) {
	m := Generate(Gen{Name: "n", Class: PatternRandom, N: 80, NNZTarget: 600, Seed: 43})
	if got, want := m.Norm1(), m.Transpose().NormInf(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("norm1 %v != norminf(T) %v", got, want)
	}
}

func TestDropZeros(t *testing.T) {
	coo := NewCOO(3, 3, 4)
	coo.Append(0, 0, 1)
	coo.Append(0, 1, 0) // explicit zero
	coo.Append(1, 1, 2)
	coo.Append(2, 2, 0) // explicit zero
	m := coo.ToCSR()
	d := m.DropZeros()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.NNZ() != 2 {
		t.Fatalf("dropped nnz = %d, want 2", d.NNZ())
	}
	if d.At(0, 0) != 1 || d.At(1, 1) != 2 {
		t.Fatal("surviving entries wrong")
	}
}

// Property: (A + B)·x == A·x + B·x.
func TestQuickAddDistributes(t *testing.T) {
	f := func(seed int64) bool {
		a := Generate(Gen{Name: "a", Class: PatternRandom, N: 50, NNZTarget: 300, Seed: seed})
		b := Generate(Gen{Name: "b", Class: PatternBanded, N: 50, NNZTarget: 300, Seed: seed + 1})
		sum, err := Add(a, b)
		if err != nil {
			return false
		}
		x := make([]float64, 50)
		for i := range x {
			x[i] = float64(i%11) - 5
		}
		ya := make([]float64, 50)
		yb := make([]float64, 50)
		ys := make([]float64, 50)
		a.MulVec(ya, x)
		b.MulVec(yb, x)
		sum.MulVec(ys, x)
		for i := range ys {
			if math.Abs(ys[i]-(ya[i]+yb[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 20)); err != nil {
		t.Fatal(err)
	}
}
