package sim

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/scc"
	"repro/internal/sparse"
)

// Randomised invariant checks of the timing model: these must hold for any
// matrix shape, not just the fixtures.

// quickSeed is every property's default random source seed. SIM_QUICK_SEED
// overrides it, so a failure logged under any seed reproduces with
//
//	SIM_QUICK_SEED=<seed> go test ./internal/sim -run TestQuick
const quickSeed = 1

// quickConfig returns a reproducible quick.Config: a fixed, logged seed
// (or SIM_QUICK_SEED) drives the generated inputs.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	t.Helper()
	seed := int64(quickSeed)
	if s := os.Getenv("SIM_QUICK_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("SIM_QUICK_SEED=%q: %v", s, err)
		}
		seed = v
	}
	t.Logf("quick seed %d (override with SIM_QUICK_SEED)", seed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(seed))}
}

func quickMatrix(seed int64) *sparse.CSR {
	rng := rand.New(rand.NewSource(seed))
	classes := []sparse.PatternClass{
		sparse.PatternStencil2D, sparse.PatternBanded,
		sparse.PatternRandom, sparse.PatternPowerLaw,
	}
	n := 500 + rng.Intn(4000)
	return sparse.Generate(sparse.Gen{
		Name:      "q",
		Class:     classes[rng.Intn(len(classes))],
		N:         n,
		NNZTarget: n * (2 + rng.Intn(12)),
		Seed:      seed,
	})
}

// Property: conf1 (faster everything) is never slower than conf0.
func TestQuickConf1NeverSlower(t *testing.T) {
	m0 := NewMachine(scc.Conf0)
	m1 := NewMachine(scc.Conf1)
	f := func(seed int64, rawUEs uint8) bool {
		a := quickMatrix(seed)
		ues := int(rawUEs)%16 + 1
		opts := Options{Mapping: scc.DistanceReductionMapping(ues)}
		r0, err := m0.RunSpMV(a, nil, opts)
		if err != nil {
			return false
		}
		r1, err := m1.RunSpMV(a, nil, opts)
		if err != nil {
			return false
		}
		return r1.TimeSec <= r0.TimeSec
	}
	if err := quick.Check(f, quickConfig(t, 12)); err != nil {
		t.Fatal(err)
	}
}

// l2OnOff runs one quick matrix at ues UEs with the L2 enabled and
// disabled.
func l2OnOff(seed int64, ues int) (on, off *Result, err error) {
	a := quickMatrix(seed)
	opts := Options{Mapping: scc.DistanceReductionMapping(ues)}
	mOff := NewMachine(scc.Conf0)
	mOff.WithL2 = false
	if on, err = NewMachine(scc.Conf0).RunSpMV(a, nil, opts); err != nil {
		return nil, nil, err
	}
	off, err = mOff.RunSpMV(a, nil, opts)
	return on, off, err
}

// uncontended is a core's time before memory-controller contention.
func uncontended(c CoreResult) float64 { return c.ComputeSec + c.MemStallSec }

// Property: disabling the L2 never speeds a core up before contention.
// Every demand access the L2 serves would otherwise stall for the full
// memory latency, so each core's uncontended time is ordered by
// construction. The contended time is not: see
// TestL2OnSlowerUnderContention.
func TestQuickL2OffNeverFaster(t *testing.T) {
	f := func(seed int64, rawUEs uint8) bool {
		on, off, err := l2OnOff(seed, int(rawUEs)%12+1)
		if err != nil {
			return false
		}
		for i := range on.PerCore {
			if uncontended(off.PerCore[i]) < uncontended(on.PerCore[i])*(1-1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 12)); err != nil {
		t.Fatal(err)
	}
}

// TestL2OnSlowerUnderContention pins the counterexample that once broke
// an L2-off-never-faster property stated on contended time. On this
// matrix at 1 UE the L2 evicts dirty y lines as full-line write-backs,
// while with the L2 off every y store writes one word through. The L2-on
// core moves more bytes through its memory controller, so its contention
// slowdown is larger, and its small uncontended lead turns into a 0.07%
// loss.
func TestL2OnSlowerUnderContention(t *testing.T) {
	on, off, err := l2OnOff(1175836909620072498, 1)
	if err != nil {
		t.Fatal(err)
	}
	cOn, cOff := on.PerCore[0], off.PerCore[0]
	t.Logf("L2 on: %d write-backs, slowdown %.4f, uncontended %.5f ms, time %.5f ms",
		cOn.Cache.MemWriteBacks, cOn.Slowdown, 1e3*uncontended(cOn), 1e3*on.TimeSec)
	t.Logf("L2 off: %d write-throughs, slowdown %.4f, uncontended %.5f ms, time %.5f ms",
		cOff.Cache.MemWriteThroughs, cOff.Slowdown, 1e3*uncontended(cOff), 1e3*off.TimeSec)
	if uncontended(cOn) >= uncontended(cOff) {
		t.Errorf("uncontended: L2 on %v not below L2 off %v", uncontended(cOn), uncontended(cOff))
	}
	if cOn.Slowdown <= cOff.Slowdown || on.TimeSec <= off.TimeSec {
		t.Errorf("contended inversion gone: slowdown on %v off %v, time on %v off %v",
			cOn.Slowdown, cOff.Slowdown, on.TimeSec, off.TimeSec)
	}
}

// Property: the no-x-miss variant's uncontended stall time never exceeds
// the standard kernel's (removing irregular accesses cannot add stalls).
func TestQuickNoXMissNeverMoreStalls(t *testing.T) {
	m := NewMachine(scc.Conf0)
	f := func(seed int64) bool {
		a := quickMatrix(seed)
		opts := Options{Mapping: scc.Mapping{0}}
		std, err := m.RunSpMV(a, nil, opts)
		if err != nil {
			return false
		}
		opts.Variant = KernelNoXMiss
		nox, err := m.RunSpMV(a, nil, opts)
		if err != nil {
			return false
		}
		return nox.PerCore[0].MemStallSec <= std.PerCore[0].MemStallSec*(1+1e-9)
	}
	if err := quick.Check(f, quickConfig(t, 12)); err != nil {
		t.Fatal(err)
	}
}

// Property: the simulator is deterministic across repeated runs and
// produces identical numerics to the reference kernel.
func TestQuickDeterministicAndCorrect(t *testing.T) {
	m := NewMachine(scc.Conf0)
	f := func(seed int64, rawUEs uint8) bool {
		a := quickMatrix(seed)
		ues := int(rawUEs)%48 + 1
		opts := Options{UEs: ues}
		r1, err := m.RunSpMV(a, nil, opts)
		if err != nil {
			return false
		}
		r2, err := m.RunSpMV(a, nil, Options{UEs: ues})
		if err != nil {
			return false
		}
		if r1.TimeSec != r2.TimeSec {
			return false
		}
		want := make([]float64, a.Rows)
		x := make([]float64, a.Cols)
		for i := range x {
			x[i] = 1
		}
		a.MulVec(want, x)
		for i := range want {
			d := r1.Y[i] - want[i]
			if d < -1e-9 || d > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickConfig(t, 10)); err != nil {
		t.Fatal(err)
	}
}

// Property: per-core nnz always sums to the matrix total for every
// partitioning scheme the simulator accepts.
func TestQuickNNZConservation(t *testing.T) {
	m := NewMachine(scc.Conf0)
	f := func(seed int64, rawUEs uint8) bool {
		a := quickMatrix(seed)
		ues := int(rawUEs)%48 + 1
		r, err := m.RunSpMV(a, nil, Options{UEs: ues})
		if err != nil {
			return false
		}
		total := 0
		for _, c := range r.PerCore {
			total += c.NNZ
		}
		return total == a.NNZ()
	}
	if err := quick.Check(f, quickConfig(t, 12)); err != nil {
		t.Fatal(err)
	}
}

// Property: prefetching never increases demand-miss-driven stall time on a
// single core (extra traffic, never extra demand stalls in this model).
func TestQuickPrefetchNeverMoreStallsSingleCore(t *testing.T) {
	plain := NewMachine(scc.Conf0)
	pf := NewMachine(scc.Conf0)
	pf.Prefetch = true
	f := func(seed int64) bool {
		a := quickMatrix(seed)
		opts := Options{Mapping: scc.Mapping{0}}
		rp, err := plain.RunSpMV(a, nil, opts)
		if err != nil {
			return false
		}
		rf, err := pf.RunSpMV(a, nil, opts)
		if err != nil {
			return false
		}
		// Prefetch can pollute the small L1/L2 slightly; allow 5%.
		return rf.PerCore[0].MemStallSec <= rp.PerCore[0].MemStallSec*1.05
	}
	if err := quick.Check(f, quickConfig(t, 10)); err != nil {
		t.Fatal(err)
	}
}
