package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sparse"
)

// geomConfig is the tiny subset the geometry-sweep tests run: 2 matrices
// at 5% scale keep the 15-cell exact leg to seconds. The budgeted cache
// both memoises the matrices and persists the stream profiles.
func geomConfig() Config {
	return Config{Scale: 0.05, Stride: 16, MatrixCache: sparse.NewMatrixCache(1 << 30)}
}

// TestL2GeomAnalyticMatchesExact is the tentpole's experiments-layer oracle:
// the cache-geometry ablation rendered under forced-exact pricing and under
// auto (which selects the analytic fast path for every TrueLRU cell) must be
// byte-identical, and the fast path must actually have fired - profiles
// reused across the grid, cells priced analytically.
func TestL2GeomAnalyticMatchesExact(t *testing.T) {
	exactCfg := geomConfig()
	exactCfg.Pricing = sim.PricingExact
	want := renderAll(t, "ablation-l2geom", exactCfg)

	builtB, reusedB, analyticB, _ := sim.PricingCounters()
	autoCfg := geomConfig()
	got := renderAll(t, "ablation-l2geom", autoCfg)
	builtA, reusedA, analyticA, _ := sim.PricingCounters()

	if got != want {
		t.Errorf("analytic pricing changed the rendered ablation:\n--- exact ---\n%s\n--- auto ---\n%s", want, got)
	}
	matrices := len(autoCfg.entries())
	if built := builtA - builtB; built != uint64(matrices) {
		t.Errorf("profiles built = %d, want one per matrix (%d)", built, matrices)
	}
	if reused := reusedA - reusedB; reused != uint64(14*matrices) {
		t.Errorf("profiles reused = %d, want 14 per matrix (%d)", reused, 14*matrices)
	}
	if cells := analyticA - analyticB; cells != uint64(15*matrices) {
		t.Errorf("cells analytic = %d, want the whole grid (%d)", cells, 15*matrices)
	}
	st := autoCfg.MatrixCache.Stats()
	if st.ProfileResident != matrices || st.ProfileUsedBytes <= 0 {
		t.Errorf("profile store after sweep: %+v, want %d resident profiles", st, matrices)
	}
}

// TestChaosAnalyticCellFaultIsolated arms the fault plan on the analytic
// path: an injected cell fault inside the geometry sweep must come back as
// one isolated error row, deterministically, exactly like the exact engine.
func TestChaosAnalyticCellFaultIsolated(t *testing.T) {
	cfg := geomConfig()
	cfg.Fault = &fault.Plan{Cell: &fault.Cell{MatrixPrefix: "TSOPF_FS_b300_c3", Index: 3}}
	out, errRows := executeAll(t, "ablation-l2geom", cfg)
	if errRows != 1 {
		t.Fatalf("expected exactly 1 error row, got %d:\n%s", errRows, out)
	}
	if !strings.Contains(out, "cell 3") {
		t.Errorf("error row does not name the failed cell:\n%s", out)
	}
	again, _ := executeAll(t, "ablation-l2geom", cfg)
	if again != out {
		t.Errorf("faulted analytic run is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", out, again)
	}
}

// TestDisabledMemoisationStaysExact pins the -cachemb 0 contract: with a
// zero-budget matrix cache the analytic path has no profile store that can
// retain anything, so auto pricing must fall back to the exact walk rather
// than silently re-tracing the reuse profile for every sweep cell (the
// pre-fix behavior: profiles_built climbed once per cell while profile
// hit counters never moved). Output stays bit-identical either way.
func TestDisabledMemoisationStaysExact(t *testing.T) {
	budgeted := geomConfig()
	want := renderAll(t, "ablation-l2geom", budgeted)

	builtB, _, analyticB, exactB := sim.PricingCounters()
	off := geomConfig()
	off.MatrixCache = sparse.NewMatrixCache(0) // -cachemb 0
	got := renderAll(t, "ablation-l2geom", off)
	builtA, _, analyticA, exactA := sim.PricingCounters()

	if got != want {
		t.Errorf("disabled memoisation changed the rendered ablation:\n--- budgeted ---\n%s\n--- cachemb 0 ---\n%s", want, got)
	}
	if built := builtA - builtB; built != 0 {
		t.Errorf("profiles built = %d, want 0 (nothing can retain them)", built)
	}
	if cells := analyticA - analyticB; cells != 0 {
		t.Errorf("cells analytic = %d, want 0 under a non-retaining store", cells)
	}
	wantCells := uint64(15 * len(off.entries()))
	if cells := exactA - exactB; cells != wantCells {
		t.Errorf("cells exact = %d, want the whole grid (%d)", cells, wantCells)
	}
	st := off.MatrixCache.Stats()
	if st.ProfileMisses != 0 || st.ProfileResident != 0 || st.ProfileUsedBytes != 0 {
		t.Errorf("zero-budget store saw profile traffic: %+v", st)
	}
}

// TestChaosAnalyticPreCancelledContextAborts proves cancellation holds on
// the analytic path through the experiments layer.
func TestChaosAnalyticPreCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := geomConfig()
	cfg.Ctx = ctx
	cfg.Pricing = sim.PricingAuto
	e, _ := ByID("ablation-l2geom")
	_, err := e.Execute(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled analytic run returned %v, want context.Canceled", err)
	}
}

// TestValidateRejectsSequentialAnalytic pins the reference-engine contract:
// sequential is the exact seed-equivalent path, so forcing analytic pricing
// on it is a contradiction the config rejects.
func TestValidateRejectsSequentialAnalytic(t *testing.T) {
	bad := Config{Scale: 0.25, sequential: true, Pricing: sim.PricingAnalytic}
	if err := bad.validate(); err == nil {
		t.Fatal("sequential with analytic pricing accepted")
	}
	ok := Config{Scale: 0.25, sequential: true, Pricing: sim.PricingExact}
	if err := ok.validate(); err != nil {
		t.Fatalf("sequential with exact pricing rejected: %v", err)
	}
}

// TestNoDirectHierarchyConstruction guards the pricing abstraction: every
// experiment must reach caches through sim.Machine (which owns the
// exact-vs-analytic decision), never by constructing cache levels or
// hierarchies itself. Config literals (e.g. Machine.L2Geom) are fine; the
// constructors are not.
func TestNoDirectHierarchyConstruction(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := []string{"cache.New(", "cache.NewHierarchy(", "cache.NewSCCHierarchy("}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if strings.Contains(string(src), b) {
				t.Errorf("%s calls %s): experiments must price caches through sim.Machine, not construct hierarchies directly", f, strings.TrimSuffix(b, "("))
			}
		}
	}
}
