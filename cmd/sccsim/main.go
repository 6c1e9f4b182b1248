// Command sccsim regenerates the paper's tables and figures on the SCC
// simulator.
//
// Usage:
//
//	sccsim -list
//	sccsim -exp fig5 [-scale 0.25] [-stride 1] [-max 0] [-csv]
//	sccsim -exp all  [-scale 0.25]
//	sccsim -exp rcce-scaling [-engine goroutine|des] [-mesh 32x32x1]
//
// -scale 1.0 reproduces the paper's matrix sizes (slow: the full testbed
// holds ~95M nonzeros); the default quarter scale preserves every
// qualitative relationship and finishes in minutes.
//
// The engine is host-parallel and deterministic: -parallel 1 forces the
// serial reference path with bit-identical output. -pricing selects the
// cache-pricing backend (exact per-access walks, the reuse-distance
// analytic fast path, or auto, which goes analytic only where provably
// bit-identical; see internal/sim/pricing.go). Each experiment's header
// line reports its wall time; repeated, noise-banded timing lives in the
// perfbench module (perfbench/run.sh). -cpuprofile/-memprofile capture
// pprof profiles of whatever the invocation runs.
//
// Executable-runtime experiments (rcce-scaling) run the real RCCE
// message-passing program: -engine selects the goroutine backend or the
// single-threaded virtual-time DES scheduler (bit-identical tables either
// way), and -mesh lifts the 48-core cap to arbitrary XxYxC geometries.
//
// Robustness: SIGINT/SIGTERM and the -deadline flag cancel the run's
// context, which stops the engine at its next matrix/cell/pass boundary;
// profiles and the -metrics snapshot are still flushed on the way out. A
// failing (matrix, cell) unit is isolated into an error row appended to
// the experiment's tables; -failfast restores abort-at-first-error.
//
// Observability (internal/obs): -metrics out.json writes a schema-stable
// JSON snapshot of every engine metric (per-UE walk timings, worker-pool
// occupancy, sweep sharing, matrix-cache effectiveness, per-controller
// contention) plus the run's span tree; -metrics-prom out.prom writes
// the same registry in Prometheus text exposition format; -trace
// out.json writes a Chrome trace-event JSON of the run's span tree and
// flight-recorder tracks (load at ui.perfetto.dev or chrome://tracing);
// -progress prints a periodic heartbeat of the counters to stderr. All
// are write-only taps: output tables are bit-identical with or without
// them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/rcce"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/stats"
)

func main() {
	// Every exit funnels through run's return code so the deferred
	// cleanups (CPU/heap profile flush, metrics snapshot, heartbeat stop)
	// run on error paths too - os.Exit anywhere deeper would lose them.
	os.Exit(run())
}

func run() int {
	var (
		list       = flag.Bool("list", false, "list available experiments and exit")
		expID      = flag.String("exp", "", "experiment id to run, or \"all\"")
		scale      = flag.Float64("scale", 0.25, "testbed scale factor in (0, 1]; 1.0 = paper sizes")
		stride     = flag.Int("stride", 1, "keep every stride-th testbed matrix")
		max        = flag.Int("max", 0, "use only the first N selected matrices (0 = all)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		outDir     = flag.String("outdir", "", "also write each experiment's tables to <outdir>/<id>.txt and .csv")
		parallel   = flag.Int("parallel", 0, "host worker pool size: 0 = GOMAXPROCS, 1 = serial reference engine")
		cacheMB    = flag.Int64("cachemb", experiments.DefaultMatrixCacheBytes>>20, "generated-matrix cache budget in MiB (0 disables memoisation)")
		deadline   = flag.Duration("deadline", 0, "cancel the whole run after this duration (0 = none)")
		failFast   = flag.Bool("failfast", false, "abort a sweep at the first failing cell instead of isolating it into an error row")
		pricing    = flag.String("pricing", "auto", "cache-pricing backend: exact (per-access walk), analytic (reuse-distance fast path), auto (analytic only where provably identical)")
		engine     = flag.String("engine", "goroutine", "RCCE backend for executable-runtime experiments: goroutine (the semantic oracle) or des (single-threaded virtual-time scheduler); tables are bit-identical either way")
		mesh       = flag.String("mesh", "", "chip geometry for executable-runtime experiments as XxYxC tiles (e.g. 32x32x1 = 1024 cores); empty = the real 6x4x2 SCC")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		metricsOut = flag.String("metrics", "", "write a JSON snapshot of the engine metrics (internal/obs) to this file on exit")
		promOut    = flag.String("metrics-prom", "", "write the engine metrics in Prometheus text exposition format to this file on exit")
		traceOut   = flag.String("trace", "", "write a Chrome trace-event JSON of the run (load at ui.perfetto.dev) to this file on exit")
		progress   = flag.Bool("progress", false, "print a periodic engine-metrics heartbeat to stderr")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-20s %s\n", e.ID, e.Title)
		}
		return 0
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "sccsim: -exp or -list required (try -list)")
		return 2
	}
	if err := validateFlags(*scale, *stride, *max, *parallel, *cacheMB, *deadline); err != nil {
		fmt.Fprintf(os.Stderr, "sccsim: %v\n", err)
		return 2
	}

	// code only ever ratchets up: a later cleanup failure cannot mask an
	// earlier error, and a cleanup error turns a "successful" run red.
	code := 0
	errf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sccsim: "+format+"\n", args...)
		if code < 1 {
			code = 1
		}
	}

	// SIGINT/SIGTERM and -deadline cancel the run context; the engine
	// stops at its next matrix/cell/pass boundary and the cleanups below
	// still flush profiles and metrics.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *deadline)
		defer cancel()
	}

	var cpuFile *os.File
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			errf("creating %s: %v", *cpuProfile, err)
			return code
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			errf("starting CPU profile: %v", err)
			return code
		}
		cpuFile = f
	}

	var reporter *obs.Reporter
	if *progress {
		reporter = obs.NewReporter(obs.Default, os.Stderr, time.Second)
		reporter.Start()
	}
	// The flight recorder only arms under -trace: the ring is generous
	// (the CLI has no post-mortem size pressure, it wants the whole run)
	// and rides the context so pool workers, the cache and the rcce
	// bridge attribute their events to this run.
	var flight *obs.Recorder
	if *traceOut != "" {
		flight = obs.NewRecorder(traceRingEvents)
		ctx = obs.WithRecorder(ctx, flight)
	}
	runSpan := obs.Default.StartSpan("run")

	// The cleanups run on every exit path from here on, success or not,
	// and surface their own failures: a truncated profile or an unwritten
	// metrics snapshot is an error, not a silent shrug.
	defer func() {
		runSpan.End()
		if reporter != nil {
			reporter.Stop()
		}
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errf("closing CPU profile %s: %v", *cpuProfile, err)
			}
		}
		if *memProfile != "" {
			if err := writeHeapProfile(*memProfile); err != nil {
				errf("%v", err)
			}
		}
		if *metricsOut != "" {
			if err := writeMetrics(*metricsOut); err != nil {
				errf("%v", err)
			} else {
				fmt.Fprintf(os.Stderr, "sccsim: metrics written to %s\n", *metricsOut)
			}
		}
		if *promOut != "" {
			if err := writeMetricsProm(*promOut); err != nil {
				errf("%v", err)
			} else {
				fmt.Fprintf(os.Stderr, "sccsim: prometheus metrics written to %s\n", *promOut)
			}
		}
		if *traceOut != "" {
			// runSpan is already ended above, so the trace's span slices
			// all carry real durations.
			if err := writeTrace(*traceOut, runSpan, flight); err != nil {
				errf("%v", err)
			} else {
				fmt.Fprintf(os.Stderr, "sccsim: trace written to %s (load at ui.perfetto.dev)\n", *traceOut)
			}
		}
	}()

	pricingMode, err := sim.ParsePricing(*pricing)
	if err != nil {
		errf("%v", err)
		return code
	}
	backend, err := rcce.ParseBackend(*engine)
	if err != nil {
		errf("%v", err)
		return code
	}
	geom, err := scc.ParseGeometry(*mesh)
	if err != nil {
		errf("-mesh: %v", err)
		return code
	}
	cache := sparse.NewMatrixCache(*cacheMB << 20)
	if flight != nil {
		cache.SetRecorder(flight)
	}
	cfg := experiments.Config{
		Scale:       *scale,
		Stride:      *stride,
		MaxMatrices: *max,
		Parallelism: *parallel,
		MatrixCache: cache,
		Ctx:         ctx,
		FailFast:    *failFast,
		Pricing:     pricingMode,
		Engine:      backend,
		Mesh:        geom,
	}

	var toRun []experiments.Experiment
	if *expID == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "sccsim: unknown experiment %q (try -list)\n", *expID)
			code = 2
			return code
		}
		toRun = []experiments.Experiment{e}
	}

	for _, e := range toRun {
		start := time.Now()
		ecfg := cfg
		ecfg.Span = runSpan.StartChild("exp:" + e.ID)
		tables, err := e.Execute(ecfg)
		ecfg.Span.End()
		if err != nil {
			errf("%s: %v", e.ID, err)
			return code
		}
		fmt.Printf("== %s: %s  (scale %g, %v)\n\n", e.ID, e.Title, *scale, time.Since(start).Round(time.Millisecond))
		for _, t := range tables {
			if *csv {
				fmt.Println(t.CSV())
			} else {
				fmt.Println(t.String())
			}
		}
		if *outDir != "" {
			if err := writeTables(*outDir, e.ID, tables); err != nil {
				errf("writing %s: %v", e.ID, err)
				return code
			}
		}
	}
	return code
}

// validateFlags rejects out-of-range engine knobs at startup with a clear
// message, instead of letting them surface as undefined behavior deep in
// partitioning or matrix generation (a negative -parallel used to reach
// the pool, -scale 0 the generator, -stride 0 the subset walk).
func validateFlags(scale float64, stride, max, parallel int, cacheMB int64, deadline time.Duration) error {
	if !(scale > 0 && scale <= 1) {
		return fmt.Errorf("-scale %v outside (0, 1]: 1.0 is the paper's size, smaller shrinks the testbed", scale)
	}
	if stride < 1 {
		return fmt.Errorf("-stride %d invalid: need >= 1 (1 keeps every testbed matrix)", stride)
	}
	if max < 0 {
		return fmt.Errorf("-max %d invalid: need >= 0 (0 keeps all selected matrices)", max)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel %d invalid: need >= 0 (0 = GOMAXPROCS, 1 = serial reference engine)", parallel)
	}
	if cacheMB < 0 {
		return fmt.Errorf("-cachemb %d invalid: need >= 0 (0 disables memoisation)", cacheMB)
	}
	if deadline < 0 {
		return fmt.Errorf("-deadline %v invalid: need >= 0 (0 = no deadline)", deadline)
	}
	return nil
}

// writeHeapProfile captures a post-GC heap profile, closing the file and
// reporting write errors instead of leaving a silently truncated profile.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating %s: %w", path, err)
	}
	runtime.GC()
	werr := pprof.WriteHeapProfile(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("writing heap profile %s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("closing heap profile %s: %w", path, cerr)
	}
	return nil
}

// writeMetrics persists the obs snapshot.
func writeMetrics(path string) error {
	blob, err := obs.Default.SnapshotJSON()
	if err != nil {
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// traceRingEvents sizes the -trace flight recorder. Unlike the daemon's
// per-job post-mortem ring, the CLI trace wants every event of the one
// run it instruments, so the ring is sized to effectively never wrap.
const traceRingEvents = 65536

// writeMetricsProm persists the obs registry in Prometheus text format.
func writeMetricsProm(path string) error {
	blob, err := obs.Default.PrometheusText()
	if err != nil {
		return fmt.Errorf("prometheus exposition: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// writeTrace persists the run's Chrome trace-event JSON: the span tree
// under runSpan plus every flight-recorder track (pool workers, cache,
// rcce).
func writeTrace(path string, runSpan *obs.Span, rec *obs.Recorder) error {
	blob, err := obs.TraceJSON([]*obs.SpanSnapshot{runSpan.Snapshot()}, rec.Snapshot())
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// writeTables persists an experiment's tables as <outdir>/<id>.txt (aligned)
// and <outdir>/<id>.csv (machine-readable, tables separated by blank lines).
func writeTables(dir, id string, tables []*stats.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var txt, csv strings.Builder
	for _, t := range tables {
		txt.WriteString(t.String())
		txt.WriteByte('\n')
		csv.WriteString(t.CSV())
		csv.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(dir, id+".txt"), []byte(txt.String()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".csv"), []byte(csv.String()), 0o644)
}
