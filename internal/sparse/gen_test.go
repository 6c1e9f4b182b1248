package sparse

import (
	"math"
	"testing"
)

func TestGenerateAllClassesValid(t *testing.T) {
	for _, class := range []PatternClass{
		PatternStencil2D, PatternStencil3D, PatternBanded,
		PatternRandom, PatternPowerLaw, PatternBlock,
	} {
		t.Run(string(class), func(t *testing.T) {
			m := Generate(Gen{Name: string(class), Class: class, N: 500, NNZTarget: 5000, Seed: 1})
			if err := m.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			if m.Rows != 500 || m.Cols != 500 {
				t.Fatalf("dims %dx%d, want 500x500", m.Rows, m.Cols)
			}
			if m.NNZ() == 0 {
				t.Fatal("no nonzeros generated")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	g := Gen{Name: "d", Class: PatternPowerLaw, N: 300, NNZTarget: 3000, Seed: 77}
	a, b := Generate(g), Generate(g)
	if !a.Equal(b) {
		t.Fatal("same seed produced different matrices")
	}
	g2 := g
	g2.Seed = 78
	c := Generate(g2)
	if a.Equal(c) {
		t.Fatal("different seeds produced identical matrices")
	}
}

func TestGenerateNNZNearTarget(t *testing.T) {
	// Classes should land within a factor-of-2 band of the target; the
	// point is matching the testbed's ws ordering, not exact counts.
	for _, class := range []PatternClass{
		PatternStencil2D, PatternStencil3D, PatternBanded,
		PatternRandom, PatternBlock,
	} {
		m := Generate(Gen{Name: "n", Class: class, N: 1000, NNZTarget: 20000, Seed: 3})
		ratio := float64(m.NNZ()) / 20000
		if ratio < 0.4 || ratio > 2.0 {
			t.Errorf("%s: nnz %d is %.2fx the target", class, m.NNZ(), ratio)
		}
	}
}

func TestStencil2DLocality(t *testing.T) {
	m := Generate(Gen{Name: "s", Class: PatternStencil2D, N: 1024, NNZTarget: 5120, Seed: 1})
	st := ComputeStats(m)
	// A grid stencil's column span per row is bounded by a few grid rows.
	if st.AvgColSpan > 5*math.Sqrt(1024) {
		t.Errorf("stencil2d avg col span %v too wide", st.AvgColSpan)
	}
	if st.StdRow > 2 {
		t.Errorf("stencil2d row-length std %v; want near-constant rows", st.StdRow)
	}
}

func TestRandomIsWiderThanBanded(t *testing.T) {
	n, nnz := 2000, 20000
	rnd := Generate(Gen{Name: "r", Class: PatternRandom, N: n, NNZTarget: nnz, Seed: 4})
	band := Generate(Gen{Name: "b", Class: PatternBanded, N: n, NNZTarget: nnz, Bandwidth: 50, Seed: 4})
	sr, sb := ComputeStats(rnd), ComputeStats(band)
	if sr.AvgColSpan <= sb.AvgColSpan {
		t.Errorf("random span %v should exceed banded span %v", sr.AvgColSpan, sb.AvgColSpan)
	}
	if sb.Bandwidth > 50 {
		t.Errorf("banded bandwidth %d exceeds requested 50", sb.Bandwidth)
	}
}

func TestPowerLawHasHeavyTail(t *testing.T) {
	m := Generate(Gen{Name: "p", Class: PatternPowerLaw, N: 5000, NNZTarget: 50000, Seed: 6})
	st := ComputeStats(m)
	if float64(st.MaxRow) < 4*st.NNZPerRow {
		t.Errorf("power law max row %d vs mean %.1f: no heavy tail", st.MaxRow, st.NNZPerRow)
	}
}

func TestBlockHasDenseDiagonalBlocks(t *testing.T) {
	m := Generate(Gen{Name: "blk", Class: PatternBlock, N: 512, NNZTarget: 16384, BlockSize: 32, Seed: 7})
	st := ComputeStats(m)
	if st.DiagFraction < 0.5 {
		t.Errorf("block matrix near-diagonal fraction %v; want most mass in blocks", st.DiagFraction)
	}
}

func TestGenerateDiagonalAlwaysPresent(t *testing.T) {
	for _, class := range []PatternClass{PatternStencil2D, PatternBanded, PatternRandom, PatternBlock} {
		m := Generate(Gen{Name: "d", Class: class, N: 100, NNZTarget: 600, Seed: 2})
		for i := 0; i < m.Rows; i++ {
			if m.At(i, i) == 0 {
				t.Fatalf("%s: missing diagonal at row %d", class, i)
			}
		}
	}
}

func TestGeneratePanicsOnBadInput(t *testing.T) {
	for name, g := range map[string]Gen{
		"zero n":        {Class: PatternRandom, N: 0, NNZTarget: 10},
		"unknown class": {Class: "nope", N: 10, NNZTarget: 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Generate did not panic", name)
				}
			}()
			Generate(g)
		}()
	}
}

func TestGenerateTinySizes(t *testing.T) {
	for _, class := range []PatternClass{
		PatternStencil2D, PatternStencil3D, PatternBanded,
		PatternRandom, PatternPowerLaw, PatternBlock,
	} {
		m := Generate(Gen{Name: "tiny", Class: class, N: 3, NNZTarget: 3, Seed: 1})
		if err := m.Validate(); err != nil {
			t.Errorf("%s at N=3: %v", class, err)
		}
	}
}

// TestStencilReservationExact checks that every stencil matrix of the
// testbed, at three scales, reserves exactly the entries it ends up with,
// so Generate hands its arrays back without a copy.
func TestStencilReservationExact(t *testing.T) {
	for _, scale := range []float64{0.05, 0.1, 0.25} {
		for _, e := range Testbed() {
			threeD := e.Class == PatternStencil3D
			if e.Class != PatternStencil2D && !threeD {
				continue
			}
			// GenerateScaled's dimensions, then the builder's grid.
			n := int(math.Max(64, math.Round(float64(e.N)*scale)))
			nnz := math.Max(float64(n), math.Round(float64(e.NNZ)*scale))
			side, ring := int(math.Round(math.Sqrt(float64(n)))), 4.0
			if threeD {
				side, ring = int(math.Round(math.Cbrt(float64(n)))), 6
			}
			radius := int(math.Max(1, math.Round((nnz/float64(n)-1)/ring)))
			if got, want := stencilNNZ(n, max(side, 1), radius, threeD), e.GenerateScaled(scale).NNZ(); got != want {
				t.Errorf("%s at scale %v: stencilNNZ %d, generated %d entries", e.Name, scale, got, want)
			}
		}
	}
}
