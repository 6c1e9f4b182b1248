package spmv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/scc"
	"repro/internal/sparse"
)

func fixture(seed int64) (*sparse.CSR, []float64, []float64) {
	a := sparse.Generate(sparse.Gen{
		Name: "f", Class: sparse.PatternPowerLaw, N: 600, NNZTarget: 6000, Seed: seed,
	})
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = math.Sin(float64(i)*0.3) + 1
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, x)
	return a, x, want
}

func assertClose(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	a, x, want := fixture(1)
	for _, w := range []int{1, 2, 3, 8, 48, 100} {
		y := make([]float64, a.Rows)
		if err := Parallel(a, y, x, w); err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertClose(t, y, want, "parallel")
	}
}

func TestParallelValidation(t *testing.T) {
	a, x, _ := fixture(2)
	y := make([]float64, a.Rows)
	if err := Parallel(a, y, x, 0); err == nil {
		t.Error("workers=0 accepted")
	}
	if err := Parallel(a, y[:3], x, 2); err == nil {
		t.Error("short y accepted")
	}
	if err := Parallel(a, y, x[:3], 2); err == nil {
		t.Error("short x accepted")
	}
}

func TestRCCEMatchesSequential(t *testing.T) {
	a, x, want := fixture(3)
	for _, ues := range []int{1, 2, 5, 16} {
		r, err := RCCE(a, x, ues, nil)
		if err != nil {
			t.Fatalf("ues=%d: %v", ues, err)
		}
		assertClose(t, r.Y, want, "rcce")
	}
}

func TestRCCEWithDistanceMapping(t *testing.T) {
	a, x, want := fixture(4)
	r, err := RCCE(a, x, 8, scc.DistanceReductionMapping(8))
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, r.Y, want, "rcce-mapped")
	if r.Stats.Messages == 0 {
		t.Error("no messages recorded; gather should communicate")
	}
}

func TestRCCEMoreUEsThanRows(t *testing.T) {
	a := sparse.Identity(5)
	x := []float64{1, 2, 3, 4, 5}
	r, err := RCCE(a, x, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if r.Y[i] != x[i] {
			t.Fatalf("y = %v", r.Y)
		}
	}
}

func TestRCCEValidation(t *testing.T) {
	a, _, _ := fixture(5)
	if _, err := RCCE(a, make([]float64, 3), 2, nil); err == nil {
		t.Error("short x accepted")
	}
}

func TestCGSolvesLaplacian(t *testing.T) {
	a := sparse.Laplacian2D(16) // SPD, n=256
	n := a.Rows
	want := make([]float64, n)
	for i := range want {
		want[i] = math.Cos(float64(i) * 0.05)
	}
	b := make([]float64, n)
	a.MulVec(b, want)
	res, err := CG(a, b, 1e-10, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("CG did not converge: residual %v after %d iters", res.Residual, res.Iterations)
	}
	for i := range want {
		if math.Abs(res.X[i]-want[i]) > 1e-6 {
			t.Fatalf("x[%d] = %v, want %v", i, res.X[i], want[i])
		}
	}
}

func TestCGZeroRHS(t *testing.T) {
	a := sparse.Laplacian2D(4)
	res, err := CG(a, make([]float64, a.Rows), 1e-8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 0 {
		t.Fatalf("zero RHS: %+v", res)
	}
}

func TestCGRejectsNonSPD(t *testing.T) {
	// -Laplacian is negative definite: p·Ap < 0 on the first step.
	a := sparse.Laplacian2D(4)
	for k := range a.Val {
		a.Val[k] = -a.Val[k]
	}
	b := make([]float64, a.Rows)
	b[0] = 1
	if _, err := CG(a, b, 1e-8, 100); err != ErrNotSPD {
		t.Fatalf("err = %v, want ErrNotSPD", err)
	}
}

func TestCGValidation(t *testing.T) {
	a := sparse.Laplacian2D(4)
	b := make([]float64, a.Rows)
	if _, err := CG(a, b[:3], 1e-8, 10); err == nil {
		t.Error("short b accepted")
	}
	if _, err := CG(a, b, 0, 10); err == nil {
		t.Error("tol=0 accepted")
	}
	if _, err := CG(a, b, 1e-8, 0); err == nil {
		t.Error("maxIter=0 accepted")
	}
	rect := &sparse.CSR{Rows: 2, Cols: 3, Ptr: []int32{0, 0, 0}}
	if _, err := CG(rect, b[:2], 1e-8, 10); err == nil {
		t.Error("rectangular accepted")
	}
}

// Property: Parallel equals Sequential for arbitrary shapes/worker counts.
func TestQuickParallelEquivalence(t *testing.T) {
	f := func(seed int64, rawN uint8, rawW uint8) bool {
		n := int(rawN)%150 + 1
		w := int(rawW)%20 + 1
		a := sparse.Generate(sparse.Gen{
			Name: "q", Class: sparse.PatternRandom, N: n, NNZTarget: 4 * n, Seed: seed,
		})
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%9) - 4
		}
		want := make([]float64, n)
		a.MulVec(want, x)
		got := make([]float64, n)
		if err := Parallel(a, got, x, w); err != nil {
			return false
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 30)); err != nil {
		t.Fatal(err)
	}
}

// quickSeed seeds every property's random source, so a failure reproduces.
const quickSeed = 1

// quickConfig returns a quick.Config drawing its inputs from quickSeed.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	t.Helper()
	t.Logf("quick seed %d", quickSeed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(quickSeed))}
}
