package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// chaosConfig is a tiny subset (entries 1, 10, 19, 28 of the testbed) so
// every chaos scenario runs in seconds. The first selected entry is
// TSOPF_FS_b300_c3 (ID 1, generator seed 1001) - the fault target below.
func chaosConfig() Config {
	return Config{Scale: 0.05, Stride: 9, MatrixCache: sparse.NewMatrixCache(0)}
}

// executeAll runs an experiment through Execute (degradation-aware) and
// returns its tables plus the concatenated CSV rendering.
func executeAll(t *testing.T, id string, cfg Config) (string, int) {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tables, err := e.Execute(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := ""
	errRows := 0
	for _, tab := range tables {
		csv := tab.CSV()
		out += csv + "\n"
		for _, line := range strings.Split(csv, "\n") {
			if strings.Contains(line, "injected fault") {
				errRows++
			}
		}
	}
	return out, errRows
}

func TestChaosMatrixFaultIsolatedIntoErrorRow(t *testing.T) {
	before := obs.Default.Snapshot().Counters["experiments.cell.errors"]
	cfg := chaosConfig()
	cfg.Fault = &fault.Plan{MatrixSeed: 1001}
	out, errRows := executeAll(t, "fig5", cfg)
	if errRows != 1 {
		t.Fatalf("expected exactly 1 error row, got %d:\n%s", errRows, out)
	}
	if !strings.Contains(out, "TSOPF_FS_b300_c3") {
		t.Errorf("error row does not name the failed matrix:\n%s", out)
	}
	after := obs.Default.Snapshot().Counters["experiments.cell.errors"]
	if after <= before {
		t.Errorf("experiments.cell.errors did not advance: %d -> %d", before, after)
	}
	// The failed matrix must actually be excluded from the aggregates (not
	// zero-filled), so the degraded means differ from the fault-free run...
	clean, _ := executeAll(t, "fig5", chaosConfig())
	if strings.Contains(out, clean) {
		t.Error("degraded run rendered the fault-free means; failed matrix was not excluded")
	}
	// ...and degradation itself is deterministic: the same faulted run
	// renders byte-identically.
	again, _ := executeAll(t, "fig5", cfg)
	if again != out {
		t.Errorf("faulted run is not deterministic:\n--- first ---\n%s\n--- second ---\n%s", out, again)
	}
}

func TestChaosCellFaultSingleErrorRow(t *testing.T) {
	cfg := chaosConfig()
	cfg.Fault = &fault.Plan{Cell: &fault.Cell{MatrixPrefix: "TSOPF_FS_b300_c3", Index: 0}}
	out, errRows := executeAll(t, "fig5", cfg)
	if errRows != 1 {
		t.Fatalf("expected exactly 1 error row, got %d:\n%s", errRows, out)
	}
	if !strings.Contains(out, "cell 0") {
		t.Errorf("error row does not name the failed cell:\n%s", out)
	}
}

func TestChaosCellFaultFailFastAborts(t *testing.T) {
	for _, parallelism := range []int{1, 0} {
		cfg := chaosConfig()
		cfg.Parallelism = parallelism
		cfg.FailFast = true
		cfg.Fault = &fault.Plan{Cell: &fault.Cell{MatrixPrefix: "TSOPF_FS_b300_c3", Index: 0}}
		e, _ := ByID("fig5")
		_, err := e.Execute(cfg)
		if err == nil {
			t.Fatalf("parallelism=%d: failfast run completed despite cell fault", parallelism)
		}
		if !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("parallelism=%d: error %v does not wrap the injected fault", parallelism, err)
		}
	}
}

func TestChaosPreCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := chaosConfig()
	cfg.Ctx = ctx
	e, _ := ByID("fig5")
	_, err := e.Execute(cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run returned %v, want context.Canceled", err)
	}
}

// TestChaosRobustnessLayerBitIdentical is the tentpole's determinism
// criterion: with the whole robustness layer armed (explicit context,
// error log attached via Execute, a non-nil fault plan that injects
// nothing) but no fault firing and no cancellation, tables are
// byte-identical to the plain pre-robustness engine at Parallelism 1 and N.
func TestChaosRobustnessLayerBitIdentical(t *testing.T) {
	for _, id := range []string{"fig5", "fig8"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			plain := chaosConfig()
			want := renderAll(t, id, plain)

			for _, parallelism := range []int{1, 0} {
				robust := chaosConfig()
				robust.Parallelism = parallelism
				robust.Ctx = context.Background()
				robust.Fault = &fault.Plan{}
				got, errRows := executeAll(t, id, robust)
				if errRows != 0 {
					t.Fatalf("parallelism=%d: fault-free run produced error rows", parallelism)
				}
				if got != want {
					t.Errorf("parallelism=%d: robustness layer changed output:\n--- plain ---\n%s\n--- robust ---\n%s",
						parallelism, want, got)
				}
			}
		})
	}
}

func TestValidateRejectsSequentialWithParallelism(t *testing.T) {
	bad := Config{Scale: 0.25, sequential: true, Parallelism: 4}
	if err := bad.validate(); err == nil {
		t.Fatal("sequential with Parallelism > 1 accepted")
	}
	// Parallelism 1 is the serial pool itself, so it composes.
	ok := Config{Scale: 0.25, sequential: true, Parallelism: 1}
	if err := ok.validate(); err != nil {
		t.Fatalf("sequential with Parallelism 1 rejected: %v", err)
	}
}
