package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sparse"
)

// testConfig returns a small but non-trivial subset: three matrices at a
// scale where every cache level still participates.
func testConfig() Config {
	return Config{Scale: 0.08, Stride: 7}
}

// renderAll runs an experiment and concatenates every table's CSV - the
// byte-exact artefact the determinism contract covers.
func renderAll(t *testing.T, id string, cfg Config) string {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tables, err := e.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := ""
	for _, tab := range tables {
		out += tab.CSV() + "\n"
	}
	return out
}

// TestExperimentsBitIdenticalUnderParallelism proves the end-to-end
// determinism contract at the experiment level: the host-parallel engine
// (worker pools + matrix cache + shared sweep walks) renders byte-identical
// tables to the serial reference engine with memoisation disabled.
func TestExperimentsBitIdenticalUnderParallelism(t *testing.T) {
	for _, id := range []string{"fig5", "fig8", "fig9", "ablation-warmup"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			sequential := testConfig()
			sequential.sequential = true
			sequential.MatrixCache = sparse.NewMatrixCache(0)

			serial := testConfig()
			serial.Parallelism = 1
			serial.MatrixCache = sparse.NewMatrixCache(0)

			parallel := testConfig()
			parallel.Parallelism = 0
			parallel.MatrixCache = sparse.NewMatrixCache(DefaultMatrixCacheBytes)

			// The seed-equivalent engine (individual cache walks, no
			// memoisation) is the ground truth both engine paths must hit.
			want := renderAll(t, id, sequential)
			if got := renderAll(t, id, serial); got != want {
				t.Errorf("serial engine output differs from sequential reference:\n--- sequential ---\n%s\n--- serial ---\n%s", want, got)
			}
			if got := renderAll(t, id, parallel); got != want {
				t.Errorf("parallel engine output differs from sequential reference:\n--- sequential ---\n%s\n--- parallel ---\n%s", want, got)
			}
		})
	}
}

// TestExperimentsBitIdenticalWithMetricsOff proves the observability
// layer is write-only at the experiment level: disabling the metrics
// registry (counters, pools, spans) renders byte-identical tables at
// Parallelism 1 and 0. Not t.Parallel: it toggles the process-wide
// registry, and must not overlap tests that assert recorded metrics.
func TestExperimentsBitIdenticalWithMetricsOff(t *testing.T) {
	for _, id := range []string{"fig5", "fig9"} {
		for _, parallelism := range []int{1, 0} {
			cfg := testConfig()
			cfg.Parallelism = parallelism
			cfg.MatrixCache = sparse.NewMatrixCache(DefaultMatrixCacheBytes)

			span := obs.Default.StartSpan("test:" + id)
			sCfg := cfg
			sCfg.Span = span
			on := renderAll(t, id, sCfg)
			span.End()

			obs.Default.SetEnabled(false)
			off := renderAll(t, id, cfg)
			obs.Default.SetEnabled(true)

			if on != off {
				t.Errorf("%s parallelism=%d: tables differ with metrics disabled:\n--- on ---\n%s\n--- off ---\n%s",
					id, parallelism, on, off)
			}
		}
	}
}

// TestExperimentsBitIdenticalWithRecorderArmed proves the flight
// recorder keeps the same write-only contract as the metrics registry:
// arming a recorder on the run context and the matrix cache renders
// byte-identical tables to a run with no recorder at all, on both
// engine paths - telemetry on/off can never change a result byte.
func TestExperimentsBitIdenticalWithRecorderArmed(t *testing.T) {
	for _, parallelism := range []int{1, 0} {
		plain := testConfig()
		plain.Parallelism = parallelism
		plain.MatrixCache = sparse.NewMatrixCache(DefaultMatrixCacheBytes)
		want := renderAll(t, "fig5", plain)

		rec := obs.NewRecorder(4096)
		cache := sparse.NewMatrixCache(DefaultMatrixCacheBytes)
		cache.SetRecorder(rec)
		armed := testConfig()
		armed.Parallelism = parallelism
		armed.MatrixCache = cache
		armed.Ctx = obs.WithRecorder(context.Background(), rec)
		got := renderAll(t, "fig5", armed)

		if got != want {
			t.Errorf("parallelism=%d: tables differ with the flight recorder armed:\n--- off ---\n%s\n--- on ---\n%s",
				parallelism, want, got)
		}
		if rec.Len() == 0 {
			t.Errorf("parallelism=%d: recorder armed but saw no events", parallelism)
		}
	}
}

// TestEngineMetricsRecorded runs one experiment and checks the
// observability layer saw the engine's work: UE walks, cells, matrix
// fetches, cache traffic, simulated flops and controller contention all
// advance. Not t.Parallel (reads the process-wide registry around a
// bounded region also touched by TestExperimentsBitIdenticalWithMetricsOff).
func TestEngineMetricsRecorded(t *testing.T) {
	before := obs.Default.Snapshot()
	cfg := testConfig()
	cfg.MatrixCache = sparse.NewMatrixCache(DefaultMatrixCacheBytes)
	cfg.Span = obs.Default.StartSpan("test:metrics-recorded")
	renderAll(t, "fig9", cfg)
	cfg.Span.End()
	after := obs.Default.Snapshot()

	for _, name := range []string{
		"sim.flops.simulated",
		"sim.sweep.runs",
		"sim.sweep.machine_runs",
		"sim.ue_walk.tasks",
		"experiments.cell.tasks",
		"experiments.matrix.visits",
		"sparse.matrix_cache.misses",
	} {
		if after.Counters[name] <= before.Counters[name] {
			t.Errorf("counter %s did not advance: %d -> %d", name, before.Counters[name], after.Counters[name])
		}
	}
	if after.Samples["sim.ue_walk.occupancy"].Count <= before.Samples["sim.ue_walk.occupancy"].Count {
		t.Error("pool occupancy never sampled")
	}
	if after.Timers["experiments.cell.task_seconds"].Count <= before.Timers["experiments.cell.task_seconds"].Count {
		t.Error("per-cell wall time never recorded")
	}
	contended := false
	for name, st := range after.Samples {
		if strings.HasPrefix(name, "mem.mc") && st.Count > before.Samples[name].Count {
			contended = true
		}
	}
	if !contended {
		t.Error("no controller contention samples recorded")
	}
	// The sweep path must actually share walks: fig9 prices 3 machines
	// per invocation.
	runs := after.Counters["sim.sweep.runs"] - before.Counters["sim.sweep.runs"]
	priced := after.Counters["sim.sweep.machine_runs"] - before.Counters["sim.sweep.machine_runs"]
	if priced != 3*runs {
		t.Errorf("sweep-share factor off: %d machine runs over %d sweeps, want 3x", priced, runs)
	}
}
