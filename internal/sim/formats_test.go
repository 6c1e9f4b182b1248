package sim

import (
	"math"
	"testing"

	"repro/internal/scc"
	"repro/internal/sparse"
)

func TestRunELLMatchesCSRNumerics(t *testing.T) {
	m := NewMachine(scc.Conf0)
	a := sparse.Generate(sparse.Gen{Name: "e", Class: sparse.PatternStencil2D, N: 4000, NNZTarget: 40000, Seed: 9})
	e, err := sparse.ToELL(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.RunELL(e, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1
	}
	a.MulVec(want, x)
	for i := range want {
		if math.Abs(r.Y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("ELL y[%d] = %v, want %v", i, r.Y[i], want[i])
		}
	}
	if r.MFLOPS <= 0 {
		t.Fatal("no throughput reported")
	}
}

func TestRunBCSRMatchesCSRNumerics(t *testing.T) {
	m := NewMachine(scc.Conf0)
	a := sparse.Generate(sparse.Gen{Name: "b", Class: sparse.PatternBlock, N: 3000, NNZTarget: 60000, BlockSize: 32, Seed: 10})
	b := sparse.ToBCSR(a, 2, 2)
	r, err := m.RunBCSR(b, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.Rows)
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1
	}
	a.MulVec(want, x)
	for i := range want {
		if math.Abs(r.Y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("BCSR y[%d] = %v, want %v", i, r.Y[i], want[i])
		}
	}
}

func TestELLPaddingCostsTime(t *testing.T) {
	// One long row forces heavy padding; ELL throughput per useful flop
	// must trail CSR's on the same matrix.
	m := NewMachine(scc.Conf0)
	coo := sparse.NewCOO(2000, 2000, 0)
	coo.Name = "padded"
	for i := 0; i < 2000; i++ {
		coo.Append(i, i, 1)
	}
	for j := 0; j < 64; j++ { // row 0 has 65 entries, all others 1
		if j != 0 {
			coo.Append(0, j, 1)
		}
	}
	a := coo.ToCSR()
	e, err := sparse.ToELL(a, 100)
	if err != nil {
		t.Fatal(err)
	}
	rCSR, err := m.RunSpMV(a, nil, Options{Mapping: scc.Mapping{0}})
	if err != nil {
		t.Fatal(err)
	}
	rELL, err := m.RunELL(e, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Same useful flops; ELL must take longer overall.
	if rELL.TimeSec <= rCSR.TimeSec {
		t.Fatalf("padded ELL time %v not above CSR %v", rELL.TimeSec, rCSR.TimeSec)
	}
}

func checkAgainstCSR(t *testing.T, a *sparse.CSR, got []float64, ctx string) {
	t.Helper()
	x := make([]float64, a.Cols)
	for i := range x {
		x[i] = 1
	}
	want := make([]float64, a.Rows)
	a.MulVec(want, x)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("%s: y[%d] = %v, want %v", ctx, i, got[i], want[i])
		}
	}
}

func TestRunDIAMatchesCSR(t *testing.T) {
	m := NewMachine(scc.Conf0)
	a := sparse.Generate(sparse.Gen{Name: "b", Class: sparse.PatternBanded, N: 3000, NNZTarget: 24000, Bandwidth: 16, Seed: 12})
	d, err := sparse.ToDIA(a, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, ues := range []int{1, 8} {
		r, err := m.RunDIA(d, ues)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstCSR(t, a, r.Y, "dia")
		if r.MFLOPS <= 0 {
			t.Fatal("no throughput")
		}
	}
}

func TestRunDIALaplacianFastAmongFormats(t *testing.T) {
	// On a pure band, DIA (all streams, no index loads) should beat CSR.
	a := sparse.Laplacian2D(200) // 40000 rows, 5 diagonals
	d, err := sparse.ToDIA(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(scc.Conf0)
	rd, err := m.RunDIA(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := m.RunSpMV(a, nil, Options{Mapping: scc.DistanceReductionMapping(8)})
	if err != nil {
		t.Fatal(err)
	}
	if rd.MFLOPS <= rc.MFLOPS {
		t.Fatalf("DIA %.0f MFLOPS not above CSR %.0f on a pure band", rd.MFLOPS, rc.MFLOPS)
	}
}

func TestRunHYBMatchesCSR(t *testing.T) {
	m := NewMachine(scc.Conf0)
	for _, class := range []sparse.PatternClass{sparse.PatternPowerLaw, sparse.PatternStencil2D} {
		a := sparse.Generate(sparse.Gen{Name: string(class), Class: class, N: 4000, NNZTarget: 40000, Seed: 13})
		hyb, err := sparse.ToHYB(a, 0.66)
		if err != nil {
			t.Fatal(err)
		}
		for _, ues := range []int{1, 6} {
			r, err := m.RunHYB(hyb, ues)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstCSR(t, a, r.Y, string(class))
		}
	}
}

func TestRunCacheBlockedMatchesCSRNumerics(t *testing.T) {
	m := NewMachine(scc.Conf0)
	a := sparse.Generate(sparse.Gen{Name: "cb", Class: sparse.PatternRandom, N: 5000, NNZTarget: 50000, Seed: 18})
	r, err := m.RunCacheBlocked(a, 1024, 8)
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstCSR(t, a, r.Y, "cacheblocked")
}

func TestCacheBlockingHelpsScatteredMatrices(t *testing.T) {
	// Cache blocking needs two things: x larger than the L2 (so plain
	// CSR misses) and enough per-core reuse of each x entry (nnz/n well
	// above the core count) for the banded window to pay off. x here is
	// 640 KB with nnz/n = 50 over 4 cores: ~12 touches per entry per
	// core.
	m := NewMachine(scc.Conf0)
	a := sparse.Generate(sparse.Gen{Name: "sc", Class: sparse.PatternRandom, N: 80000, NNZTarget: 4000000, Seed: 19})
	plain, err := m.RunSpMV(a, nil, Options{Mapping: scc.DistanceReductionMapping(4)})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := m.RunCacheBlocked(a, 16384, 4) // 128 KB x-window
	if err != nil {
		t.Fatal(err)
	}
	if blocked.MFLOPS <= plain.MFLOPS {
		t.Fatalf("cache blocking did not help: %.0f vs %.0f MFLOPS", blocked.MFLOPS, plain.MFLOPS)
	}
}

func TestCacheBlockingNeutralOrWorseOnLocalMatrices(t *testing.T) {
	// A band matrix already has a tiny x window; blocking only adds the
	// repeated row walks.
	m := NewMachine(scc.Conf0)
	a := sparse.Generate(sparse.Gen{Name: "lb", Class: sparse.PatternBanded, N: 60000, NNZTarget: 600000, Bandwidth: 64, Seed: 20})
	plain, err := m.RunSpMV(a, nil, Options{Mapping: scc.DistanceReductionMapping(8)})
	if err != nil {
		t.Fatal(err)
	}
	blocked, err := m.RunCacheBlocked(a, 4096, 8)
	if err != nil {
		t.Fatal(err)
	}
	if blocked.MFLOPS > 1.1*plain.MFLOPS {
		t.Fatalf("blocking should not help a band matrix: %.0f vs %.0f", blocked.MFLOPS, plain.MFLOPS)
	}
}

// formatRunners is the validation table: one entry per format runner, each
// running the same small Laplacian at a given UE count.
func formatRunners(t *testing.T) map[string]func(ues int) (*Result, error) {
	t.Helper()
	m := NewMachine(scc.Conf0)
	a := sparse.Laplacian2D(8)
	ell, err := sparse.ToELL(a, 10)
	if err != nil {
		t.Fatal(err)
	}
	bcsr := sparse.ToBCSR(a, 2, 2)
	dia, err := sparse.ToDIA(a, 5)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := sparse.ToHYB(a, 0.66)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]func(ues int) (*Result, error){
		"ell":  func(ues int) (*Result, error) { return m.RunELL(ell, ues) },
		"bcsr": func(ues int) (*Result, error) { return m.RunBCSR(bcsr, ues) },
		"dia":  func(ues int) (*Result, error) { return m.RunDIA(dia, ues) },
		"hyb":  func(ues int) (*Result, error) { return m.RunHYB(hyb, ues) },
		"cacheblocked": func(ues int) (*Result, error) {
			return m.RunCacheBlocked(a, 4, ues)
		},
	}
}

// TestFormatKernelsValidateUEs: every format runner rejects UE counts the
// chip cannot hold through the same Mapping.Validate path as CSR, and
// accepts the full chip.
func TestFormatKernelsValidateUEs(t *testing.T) {
	runners := formatRunners(t)
	if len(runners) != 5 {
		t.Fatalf("table holds %d runners, want 5", len(runners))
	}
	for name, run := range runners {
		for _, ues := range []int{0, scc.NumCores + 1} {
			if _, err := run(ues); err == nil {
				t.Errorf("%s: ues=%d accepted", name, ues)
			}
		}
		if _, err := run(scc.NumCores); err != nil {
			t.Errorf("%s: ues=%d rejected: %v", name, scc.NumCores, err)
		}
	}
}

// TestFormat2Validation: DIA and HYB, whose runners once had their own
// UE checks, reject bad UE counts through the shared table too.
func TestFormat2Validation(t *testing.T) {
	runners := formatRunners(t)
	for _, c := range []struct {
		name string
		ues  int
	}{{"dia", 0}, {"hyb", scc.NumCores + 1}} {
		if _, err := runners[c.name](c.ues); err == nil {
			t.Errorf("%s: ues=%d accepted", c.name, c.ues)
		}
	}
}

// TestRunCacheBlockedValidation: the cache-blocked runner rejects an empty
// band as well as a bad UE count.
func TestRunCacheBlockedValidation(t *testing.T) {
	m := NewMachine(scc.Conf0)
	a := sparse.Identity(8)
	if _, err := m.RunCacheBlocked(a, 0, 4); err == nil {
		t.Error("bandCols=0 accepted")
	}
	if _, err := m.RunCacheBlocked(a, 4, 0); err == nil {
		t.Error("ues=0 accepted")
	}
}
