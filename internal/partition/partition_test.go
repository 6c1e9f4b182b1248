package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sparse"
)

func genMatrix(seed int64) *sparse.CSR {
	return sparse.Generate(sparse.Gen{
		Name: "p", Class: sparse.PatternPowerLaw, N: 500, NNZTarget: 5000, Seed: seed,
	})
}

func TestByNNZCoversAndBalances(t *testing.T) {
	a := genMatrix(1)
	for _, k := range []int{1, 2, 3, 8, 16, 48} {
		p := ByNNZ(a, k)
		if len(p) != k {
			t.Fatalf("k=%d: %d parts", k, len(p))
		}
		if err := p.Validate(a.Rows); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		// Balanced within a factor of 2 of the mean for this matrix
		// (heavy rows cap what any contiguous scheme can do).
		if im := p.Imbalance(a); im > 2.0 {
			t.Errorf("k=%d: nnz imbalance %.2f", k, im)
		}
	}
}

func TestByNNZContiguousAscending(t *testing.T) {
	a := genMatrix(2)
	p := ByNNZ(a, 7)
	next := int32(0)
	for u, rows := range p {
		for _, r := range rows {
			if r != next {
				t.Fatalf("UE %d: row %d out of order (want %d)", u, r, next)
			}
			next++
		}
	}
	if int(next) != a.Rows {
		t.Fatalf("covered %d of %d rows", next, a.Rows)
	}
}

func TestByNNZBeatsByRowsOnImbalance(t *testing.T) {
	// With a heavy-tailed matrix, balancing nonzeros must beat balancing
	// rows on nnz imbalance.
	a := genMatrix(3)
	k := 8
	byNNZ := ByNNZ(a, k).Imbalance(a)
	byRows := ByRows(a.Rows, k).Imbalance(a)
	if byNNZ >= byRows {
		t.Fatalf("ByNNZ imbalance %.2f >= ByRows %.2f", byNNZ, byRows)
	}
}

func TestByNNZSingleUE(t *testing.T) {
	a := genMatrix(4)
	p := ByNNZ(a, 1)
	if len(p[0]) != a.Rows {
		t.Fatalf("single UE owns %d rows, want all %d", len(p[0]), a.Rows)
	}
}

func TestByNNZMoreUEsThanRows(t *testing.T) {
	a := sparse.Identity(3)
	p := ByNNZ(a, 8)
	if err := p.Validate(3); err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	for _, rows := range p {
		if len(rows) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty == 0 || nonEmpty > 3 {
		t.Fatalf("%d non-empty parts for 3 rows", nonEmpty)
	}
}

func TestByRows(t *testing.T) {
	p := ByRows(10, 3)
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
	if len(p[0])+len(p[1])+len(p[2]) != 10 || len(p[0]) < 3 || len(p[2]) < 3 {
		t.Fatalf("row counts %d/%d/%d", len(p[0]), len(p[1]), len(p[2]))
	}
}

func TestCyclic(t *testing.T) {
	p := Cyclic(10, 3)
	if err := p.Validate(10); err != nil {
		t.Fatal(err)
	}
	if p[1][0] != 1 || p[1][1] != 4 || p[1][2] != 7 {
		t.Fatalf("cyclic UE 1 rows = %v", p[1])
	}
}

func TestSplitDispatch(t *testing.T) {
	a := genMatrix(5)
	for _, s := range []Scheme{SchemeByNNZ, SchemeByRows, SchemeCyclic} {
		p, err := Split(s, a, 4)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := p.Validate(a.Rows); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if _, err := Split("nope", a, 4); err == nil {
		t.Fatal("unknown scheme accepted")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	if err := (Parts{{0, 1}, {1, 2}}).Validate(3); err == nil {
		t.Error("duplicate row accepted")
	}
	if err := (Parts{{0, 5}}).Validate(3); err == nil {
		t.Error("out-of-range row accepted")
	}
	if err := (Parts{{0, 1}}).Validate(3); err == nil {
		t.Error("missing row accepted")
	}
}

func TestPanicsOnNonPositiveK(t *testing.T) {
	for name, f := range map[string]func(){
		"ByNNZ":  func() { ByNNZ(sparse.Identity(2), 0) },
		"ByRows": func() { ByRows(2, 0) },
		"Cyclic": func() { Cyclic(2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(k<=0) did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: every scheme covers every row exactly once for random shapes.
func TestQuickSchemesCover(t *testing.T) {
	f := func(seed int64, rawN, rawK uint8) bool {
		n := int(rawN)%200 + 1
		k := int(rawK)%48 + 1
		rng := rand.New(rand.NewSource(seed))
		a := sparse.Generate(sparse.Gen{
			Name: "q", Class: sparse.PatternRandom, N: n,
			NNZTarget: n * (1 + rng.Intn(8)), Seed: seed,
		})
		for _, s := range []Scheme{SchemeByNNZ, SchemeByRows, SchemeCyclic} {
			p, err := Split(s, a, k)
			if err != nil || p.Validate(n) != nil || len(p) != k {
				return false
			}
		}
		return true
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
