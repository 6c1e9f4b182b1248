package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// genSpec is a reduced, always-valid generator description for testing/quick.
type genSpec struct {
	ClassIdx uint8
	N        uint16
	PerRow   uint8
	Seed     int64
}

var quickClasses = []PatternClass{
	PatternStencil2D, PatternStencil3D, PatternBanded,
	PatternRandom, PatternPowerLaw, PatternBlock,
}

func (genSpec) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(genSpec{
		ClassIdx: uint8(r.Intn(len(quickClasses))),
		N:        uint16(8 + r.Intn(300)),
		PerRow:   uint8(1 + r.Intn(12)),
		Seed:     r.Int63(),
	})
}

func (s genSpec) build(name string) *CSR {
	n := int(s.N)
	return Generate(Gen{
		Name:      name,
		Class:     quickClasses[s.ClassIdx],
		N:         n,
		NNZTarget: n * int(s.PerRow),
		Seed:      s.Seed,
	})
}

// Property: every generated matrix satisfies the CSR structural invariants.
func TestQuickGeneratedMatricesValid(t *testing.T) {
	f := func(s genSpec) bool {
		return s.build("q").Validate() == nil
	}
	if err := quick.Check(f, quickConfig(t, 40)); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution for any generated matrix.
func TestQuickTransposeInvolution(t *testing.T) {
	f := func(s genSpec) bool {
		m := s.build("q")
		return m.Equal(m.Transpose().Transpose())
	}
	if err := quick.Check(f, quickConfig(t, 40)); err != nil {
		t.Fatal(err)
	}
}

// Property: CSR -> COO -> CSR is the identity.
func TestQuickCOORoundTrip(t *testing.T) {
	f := func(s genSpec) bool {
		m := s.build("q")
		back := FromCSR(m).ToCSR()
		back.Name = m.Name
		return m.Equal(back)
	}
	if err := quick.Check(f, quickConfig(t, 40)); err != nil {
		t.Fatal(err)
	}
}

// Property: MulVec is linear: A(ax + by) = a·Ax + b·Ay.
func TestQuickMulVecLinear(t *testing.T) {
	f := func(s genSpec, a, b int8) bool {
		m := s.build("q")
		n := m.Rows
		rng := rand.New(rand.NewSource(s.Seed + 1))
		x1 := make([]float64, n)
		x2 := make([]float64, n)
		for i := range x1 {
			x1[i] = rng.NormFloat64()
			x2[i] = rng.NormFloat64()
		}
		af, bf := float64(a), float64(b)
		comb := make([]float64, n)
		for i := range comb {
			comb[i] = af*x1[i] + bf*x2[i]
		}
		y1 := make([]float64, n)
		y2 := make([]float64, n)
		yc := make([]float64, n)
		m.MulVec(y1, x1)
		m.MulVec(y2, x2)
		m.MulVec(yc, comb)
		for i := range yc {
			want := af*y1[i] + bf*y2[i]
			if math.Abs(yc[i]-want) > 1e-8*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 25)); err != nil {
		t.Fatal(err)
	}
}

// Property: A^T satisfies <Ax, y> = <x, A^T y>.
func TestQuickTransposeAdjoint(t *testing.T) {
	f := func(s genSpec) bool {
		m := s.build("q")
		tr := m.Transpose()
		n := m.Rows
		rng := rand.New(rand.NewSource(s.Seed + 2))
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		ax := make([]float64, n)
		aty := make([]float64, n)
		m.MulVec(ax, x)
		tr.MulVec(aty, y)
		var lhs, rhs float64
		for i := range x {
			lhs += ax[i] * y[i]
			rhs += x[i] * aty[i]
		}
		return math.Abs(lhs-rhs) <= 1e-7*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, quickConfig(t, 25)); err != nil {
		t.Fatal(err)
	}
}

// Property: random permutations validate and invert correctly.
func TestQuickPermutationInverse(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		size := int(n)%200 + 1
		p := RandomPerm(size, seed)
		if p.Validate() != nil {
			return false
		}
		inv := p.Inverse()
		for i := range p {
			if inv[p[i]] != int32(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 40)); err != nil {
		t.Fatal(err)
	}
}

// Property: symmetric permutation preserves nnz, validity, and the multiset
// of row lengths is preserved under relabeling.
func TestQuickApplySymmetricPreservesStructure(t *testing.T) {
	f := func(s genSpec, seed int64) bool {
		m := s.build("q")
		p := RandomPerm(m.Rows, seed)
		pm := ApplySymmetric(m, p)
		if pm.Validate() != nil || pm.NNZ() != m.NNZ() {
			return false
		}
		for i := 0; i < m.Rows; i++ {
			if pm.RowNNZ(int(p[i])) != m.RowNNZ(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 25)); err != nil {
		t.Fatal(err)
	}
}

// Property: stats are internally consistent for any generated matrix.
func TestQuickStatsConsistent(t *testing.T) {
	f := func(s genSpec) bool {
		m := s.build("q")
		st := ComputeStats(m)
		if st.NNZ != m.NNZ() || st.Rows != m.Rows {
			return false
		}
		if st.MinRow > st.MaxRow {
			return false
		}
		if st.NNZPerRow < float64(st.MinRow) || st.NNZPerRow > float64(st.MaxRow) {
			return false
		}
		if st.Bandwidth < 0 || st.Bandwidth >= m.Rows && m.Rows > 0 && st.Bandwidth != 0 && st.Bandwidth > m.Rows-1 {
			return false
		}
		return st.DiagFraction >= 0 && st.DiagFraction <= 1
	}
	if err := quick.Check(f, quickConfig(t, 40)); err != nil {
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
