package sparse

import (
	"math"
	"testing"
)

func vecApproxEqual(t *testing.T, got, want []float64, context string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", context, len(got), len(want))
	}
	for i := range got {
		tol := 1e-9 * math.Max(1, math.Abs(want[i]))
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: element %d: %v != %v", context, i, got[i], want[i])
		}
	}
}

func testVectors(n int) (x, want []float64) {
	x = make([]float64, n)
	for i := range x {
		x[i] = math.Cos(float64(i) * 0.7)
	}
	return x, make([]float64, n)
}

func TestELLMatchesCSR(t *testing.T) {
	for _, class := range []PatternClass{PatternStencil2D, PatternBanded, PatternBlock} {
		m := Generate(Gen{Name: string(class), Class: class, N: 150, NNZTarget: 1800, Seed: 5})
		e, err := ToELL(m, 10)
		if err != nil {
			t.Fatalf("%s: ToELL: %v", class, err)
		}
		if e.NNZ() != m.NNZ() {
			t.Fatalf("%s: ELL NNZ %d != CSR %d", class, e.NNZ(), m.NNZ())
		}
		x, _ := testVectors(m.Cols)
		want := make([]float64, m.Rows)
		got := make([]float64, m.Rows)
		m.MulVec(want, x)
		e.MulVec(got, x)
		vecApproxEqual(t, got, want, string(class))
	}
}

func TestELLRejectsHeavyPadding(t *testing.T) {
	// Power-law: one huge row forces K ~ max row length.
	m := Generate(Gen{Name: "pl", Class: PatternPowerLaw, N: 2000, NNZTarget: 10000, Seed: 9})
	st := ComputeStats(m)
	if float64(st.MaxRow) < 3*st.NNZPerRow {
		t.Skip("power-law generator did not produce a heavy tail at this size")
	}
	if _, err := ToELL(m, 1.5); err == nil {
		t.Error("ToELL accepted a matrix whose padding exceeds the bound")
	}
}

func TestBCSRMatchesCSR(t *testing.T) {
	for _, blk := range []struct{ r, c int }{{1, 1}, {2, 2}, {4, 4}, {2, 3}, {3, 2}} {
		m := Generate(Gen{Name: "b", Class: PatternStencil2D, N: 123, NNZTarget: 1000, Seed: 17})
		b := ToBCSR(m, blk.r, blk.c)
		x, _ := testVectors(m.Cols)
		want := make([]float64, m.Rows)
		got := make([]float64, m.Rows)
		m.MulVec(want, x)
		b.MulVec(got, x)
		vecApproxEqual(t, got, want, "bcsr")
		if fr := b.FillRatio(m.NNZ()); fr < 1 {
			t.Fatalf("fill ratio %v < 1 for %dx%d blocks", fr, blk.r, blk.c)
		}
	}
}

func TestBCSR1x1IsExactlyCSR(t *testing.T) {
	m := Generate(Gen{Name: "b", Class: PatternRandom, N: 64, NNZTarget: 400, Seed: 21})
	b := ToBCSR(m, 1, 1)
	if b.Blocks() != m.NNZ() {
		t.Fatalf("1x1 BCSR blocks %d != nnz %d", b.Blocks(), m.NNZ())
	}
	if fr := b.FillRatio(m.NNZ()); fr != 1 {
		t.Fatalf("1x1 fill ratio %v != 1", fr)
	}
}

func TestBCSRPanicsOnBadBlocks(t *testing.T) {
	m := Identity(4)
	defer func() {
		if recover() == nil {
			t.Error("ToBCSR(0,0) did not panic")
		}
	}()
	ToBCSR(m, 0, 0)
}
