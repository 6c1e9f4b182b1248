package sparse

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// paperExample is the 5x5 matrix from Figure 2 of the paper's CSR example
// shape: a small unsymmetric pattern covering empty-ish rows and scattered
// columns.
func paperExample() *CSR {
	coo := NewCOO(5, 5, 10)
	coo.Name = "fig2"
	coo.Append(0, 0, 1)
	coo.Append(0, 2, 2)
	coo.Append(1, 1, 3)
	coo.Append(2, 0, 4)
	coo.Append(2, 3, 5)
	coo.Append(2, 4, 6)
	coo.Append(3, 3, 7)
	coo.Append(4, 1, 8)
	coo.Append(4, 4, 9)
	return coo.ToCSR()
}

func TestCSRBasicAccessors(t *testing.T) {
	m := paperExample()
	if m.Rows != 5 || m.Cols != 5 {
		t.Fatalf("dims = %dx%d, want 5x5", m.Rows, m.Cols)
	}
	if m.NNZ() != 9 {
		t.Fatalf("NNZ = %d, want 9", m.NNZ())
	}
	if got := m.NNZPerRow(); math.Abs(got-1.8) > 1e-12 {
		t.Fatalf("NNZPerRow = %v, want 1.8", got)
	}
	if got := m.RowNNZ(2); got != 3 {
		t.Fatalf("RowNNZ(2) = %d, want 3", got)
	}
	idx, val := m.Row(2)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 3 || idx[2] != 4 {
		t.Fatalf("Row(2) indices = %v", idx)
	}
	if val[1] != 5 {
		t.Fatalf("Row(2) values = %v", val)
	}
}

func TestCSRAt(t *testing.T) {
	m := paperExample()
	cases := []struct {
		i, j int
		want float64
	}{
		{0, 0, 1}, {0, 2, 2}, {0, 1, 0}, {2, 4, 6}, {4, 4, 9},
		{3, 0, 0}, {-1, 0, 0}, {0, -1, 0}, {5, 0, 0}, {0, 5, 0},
	}
	for _, c := range cases {
		if got := m.At(c.i, c.j); got != c.want {
			t.Errorf("At(%d,%d) = %v, want %v", c.i, c.j, got, c.want)
		}
	}
}

func TestMulVecAgainstDenseComputation(t *testing.T) {
	m := paperExample()
	x := []float64{1, 2, 3, 4, 5}
	y := make([]float64, 5)
	m.MulVec(y, x)
	// Dense reference.
	want := make([]float64, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			want[i] += m.At(i, j) * x[j]
		}
	}
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	m := paperExample()
	for _, c := range []struct {
		nx, ny int
	}{{4, 5}, {5, 4}, {0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MulVec with len(x)=%d len(y)=%d did not panic", c.nx, c.ny)
				}
			}()
			m.MulVec(make([]float64, c.ny), make([]float64, c.nx))
		}()
	}
}

func TestMulVecRowsMatchesFull(t *testing.T) {
	m := Generate(Gen{Name: "t", Class: PatternBanded, N: 200, NNZTarget: 2000, Seed: 7})
	x := make([]float64, m.Cols)
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	full := make([]float64, m.Rows)
	m.MulVec(full, x)
	part := make([]float64, m.Rows)
	bounds := []int{0, 37, 85, 130, 200}
	for b := 0; b+1 < len(bounds); b++ {
		m.MulVecRows(part, x, bounds[b], bounds[b+1])
	}
	for i := range full {
		if full[i] != part[i] {
			t.Fatalf("row %d: piecewise %v != full %v", i, part[i], full[i])
		}
	}
}

func TestMulVecNoXUsesOnlyX0(t *testing.T) {
	m := paperExample()
	x := []float64{2, 99, -4, 17, 0.5}
	y := make([]float64, 5)
	m.MulVecNoX(y, x)
	// Every row sum should be (sum of row values) * x[0].
	for i := 0; i < m.Rows; i++ {
		var want float64
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			want += m.Val[k] * x[0]
		}
		if math.Abs(y[i]-want) > 1e-12 {
			t.Fatalf("NoX y[%d] = %v, want %v", i, y[i], want)
		}
	}
}

func TestWorkingSetFormula(t *testing.T) {
	// The paper's formula: 4*((n+1)+nnz) + 8*(nnz+2n).
	m := paperExample() // n=5, nnz=9
	want := int64(4*((5+1)+9) + 8*(9+2*5))
	if got := m.WorkingSetBytes(); got != want {
		t.Fatalf("WorkingSetBytes = %d, want %d", got, want)
	}
	if got := m.WorkingSetMB(); math.Abs(got-float64(want)/(1<<20)) > 1e-15 {
		t.Fatalf("WorkingSetMB = %v", got)
	}
}

func TestValidateAcceptsGoodMatrix(t *testing.T) {
	if err := paperExample().Validate(); err != nil {
		t.Fatalf("Validate(good) = %v", err)
	}
	if err := Identity(10).Validate(); err != nil {
		t.Fatalf("Validate(identity) = %v", err)
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	mk := func() *CSR { return paperExample() }

	m := mk()
	m.Ptr[0] = 1
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted Ptr[0] != 0")
	}

	m = mk()
	m.Ptr[2], m.Ptr[3] = m.Ptr[3], m.Ptr[2] // non-monotone
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted non-monotone Ptr")
	}

	m = mk()
	m.Index[0] = 99
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted out-of-range column")
	}

	m = mk()
	m.Index[1] = m.Index[0] // duplicate column in row 0
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted duplicate column")
	}

	m = mk()
	m.Val[3] = math.NaN()
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted NaN value")
	}

	m = mk()
	m.Ptr = m.Ptr[:len(m.Ptr)-1]
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted short Ptr")
	}

	m = mk()
	m.Val = m.Val[:len(m.Val)-1]
	if err := m.Validate(); err == nil {
		t.Error("Validate accepted len(Index) != len(Val)")
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := paperExample()
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Val[0] = 123
	c.Index[0] = 4
	c.Ptr[1] = 0
	if m.Val[0] == 123 || m.Index[0] == 4 || m.Ptr[1] == 0 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := Generate(Gen{Name: "t", Class: PatternRandom, N: 120, NNZTarget: 1500, Seed: 3})
	tt := m.Transpose().Transpose()
	if !m.Equal(tt) {
		t.Fatal("transpose twice != original")
	}
}

func TestTransposeEntries(t *testing.T) {
	m := paperExample()
	tr := m.Transpose()
	if err := tr.Validate(); err != nil {
		t.Fatalf("transpose invalid: %v", err)
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("At(%d,%d)=%v but transpose At(%d,%d)=%v", i, j, m.At(i, j), j, i, tr.At(j, i))
			}
		}
	}
}

func TestSymmetricPattern(t *testing.T) {
	if !Laplacian2D(8).SymmetricPattern() {
		t.Error("Laplacian2D should have a symmetric pattern")
	}
	if paperExample().SymmetricPattern() {
		t.Error("paper example pattern is not symmetric")
	}
	rect := &CSR{Rows: 2, Cols: 3, Ptr: []int32{0, 0, 0}}
	if rect.SymmetricPattern() {
		t.Error("rectangular matrix cannot be symmetric")
	}
}

func TestEqual(t *testing.T) {
	a := paperExample()
	if !a.Equal(a.Clone()) {
		t.Fatal("matrix not equal to its clone")
	}
	b := a.Clone()
	b.Val[2] += 1
	if a.Equal(b) {
		t.Fatal("Equal ignored a value difference")
	}
	c := a.Clone()
	c.Index[2]++
	if a.Equal(c) {
		t.Fatal("Equal ignored a pattern difference")
	}
	if a.Equal(Identity(5)) {
		t.Fatal("Equal confused different matrices")
	}
	if a.Equal(Identity(4)) {
		t.Fatal("Equal ignored dimension difference")
	}
}

func TestEmptyMatrix(t *testing.T) {
	m := &CSR{Ptr: []int32{0}}
	if err := m.Validate(); err != nil {
		t.Fatalf("empty matrix invalid: %v", err)
	}
	if m.NNZ() != 0 || m.NNZPerRow() != 0 {
		t.Fatal("empty matrix has nonzeros")
	}
	m.MulVec(nil, nil) // 0x0: must not panic
}

func TestIdentityMulVec(t *testing.T) {
	m := Identity(17)
	x := make([]float64, 17)
	for i := range x {
		x[i] = float64(i) * 1.5
	}
	y := make([]float64, 17)
	m.MulVec(y, x)
	for i := range y {
		if y[i] != x[i] {
			t.Fatalf("identity changed x at %d: %v != %v", i, y[i], x[i])
		}
	}
}

func TestLaplacian2DProperties(t *testing.T) {
	m := Laplacian2D(6)
	if err := m.Validate(); err != nil {
		t.Fatalf("laplacian invalid: %v", err)
	}
	if m.Rows != 36 {
		t.Fatalf("rows = %d, want 36", m.Rows)
	}
	// Row sums: interior rows sum to 0, boundary rows are positive.
	for i := 0; i < m.Rows; i++ {
		var s float64
		for k := m.Ptr[i]; k < m.Ptr[i+1]; k++ {
			s += m.Val[k]
		}
		if s < 0 {
			t.Fatalf("row %d sum %v < 0; not diagonally dominant", i, s)
		}
	}
	if m.At(0, 0) != 4 || m.At(0, 1) != -1 {
		t.Fatal("unexpected Laplacian coefficients")
	}
}

// cloneCSR copies m's dimensions and arrays into a fresh CSR named name.
func cloneCSR(m *CSR, name string) *CSR {
	return &CSR{Name: name, Rows: m.Rows, Cols: m.Cols,
		Ptr: slices.Clone(m.Ptr), Index: slices.Clone(m.Index), Val: slices.Clone(m.Val)}
}

func TestContentKeyStableAndNameBlind(t *testing.T) {
	m := Generate(Gen{Name: "key", Class: PatternBanded, N: 300, NNZTarget: 3000, Seed: 7})
	k := m.ContentKey()
	if len(k) != 16 {
		t.Fatalf("key %q is not 16 hex digits", k)
	}
	if again := m.ContentKey(); again != k {
		t.Errorf("second call returned %s, first %s", again, k)
	}
	if c := cloneCSR(m, m.Name); c.ContentKey() != k {
		t.Errorf("a clone's key %s differs from %s", c.ContentKey(), k)
	}
	if c := cloneCSR(m, "renamed"); c.ContentKey() != k {
		t.Errorf("renaming changed the key: %s vs %s", c.ContentKey(), k)
	}
}

func TestContentKeySeesEveryElement(t *testing.T) {
	base := Generate(Gen{Name: "key", Class: PatternBanded, N: 300, NNZTarget: 3000, Seed: 7})
	base.Val[5] = 0 // a literal zero, so its sign bit can flip alone
	k := base.ContentKey()
	seen := map[string]string{k: "base"}
	changed := func(what string, edit func(c *CSR)) {
		t.Helper()
		c := cloneCSR(base, base.Name)
		edit(c)
		got := c.ContentKey()
		if prev, dup := seen[got]; dup {
			t.Errorf("%s: key %s equals %s's", what, got, prev)
		}
		seen[got] = what
	}
	changed("rows", func(c *CSR) { c.Rows++ })
	changed("cols", func(c *CSR) { c.Cols++ })
	for i := range base.Ptr {
		changed(fmt.Sprintf("Ptr[%d]", i), func(c *CSR) { c.Ptr[i]++ })
	}
	for i := range base.Index {
		changed(fmt.Sprintf("Index[%d]", i), func(c *CSR) { c.Index[i] ^= 1 })
	}
	for i := range base.Val {
		changed(fmt.Sprintf("Val[%d] sign", i), func(c *CSR) { c.Val[i] = -c.Val[i] })
		changed(fmt.Sprintf("Val[%d] low bit", i), func(c *CSR) {
			c.Val[i] = math.Float64frombits(math.Float64bits(c.Val[i]) ^ 1)
		})
	}
	changed("Val[5] to one", func(c *CSR) { c.Val[5] = 1 })
}
