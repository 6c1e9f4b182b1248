package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// BenchRecord is the machine-readable perf record `sccsim -exp bench`
// emits (BENCH_<experiment>.json) so the engine's throughput trajectory
// can be tracked across commits.
type BenchRecord struct {
	// Experiment identifies the benchmarked sweep and Scale/Stride/
	// MaxMatrices its testbed subset.
	Experiment  string  `json:"experiment"`
	Scale       float64 `json:"scale"`
	Stride      int     `json:"stride,omitempty"`
	MaxMatrices int     `json:"max_matrices,omitempty"`
	// GoMaxProcs records the host parallelism available to the run and
	// Parallelism the pool bound the parallel leg used (0 = GOMAXPROCS).
	GoMaxProcs  int `json:"gomaxprocs"`
	Parallelism int `json:"parallelism"`
	// SerialSec is the wall clock of the seed-equivalent reference leg
	// (Sequential: no pools, no shared sweep walks, zero-budget matrix
	// cache); ParallelSec the wall clock of the configured engine with
	// exact pricing (worker pools + matrix cache + shared-sweep walks).
	// Speedup is their ratio.
	SerialSec   float64 `json:"serial_sec"`
	ParallelSec float64 `json:"parallel_sec"`
	Speedup     float64 `json:"speedup"`
	// AnalyticSec is the wall clock of the configured engine with the
	// reuse-distance analytic pricing path enabled (PricingAuto: cells go
	// analytic only where provably bit-identical to the exact walk);
	// AnalyticSpeedup is ParallelSec/AnalyticSec - the fast path's gain at
	// equal engine parallelism. OutputIdentical records whether the
	// analytic leg rendered byte-identical tables to the exact parallel
	// leg (it must, wherever auto selects the analytic path).
	AnalyticSec     float64 `json:"analytic_sec"`
	AnalyticSpeedup float64 `json:"analytic_speedup"`
	OutputIdentical bool    `json:"output_identical"`
	// Trace-once, price-many effectiveness during the analytic leg (see
	// internal/sim/pricing.go): stream profiles built vs reused from the
	// store, and sweep cells priced by the analytic vs exact backend.
	ProfilesBuilt  uint64 `json:"profiles_built"`
	ProfilesReused uint64 `json:"profiles_reused"`
	CellsAnalytic  uint64 `json:"cells_analytic"`
	CellsExact     uint64 `json:"cells_exact"`
	// Matrices is the subset size; MatrixVisits counts matrix fetches
	// the parallel leg performed (visits/sec measures harness
	// throughput including cache effects).
	Matrices       int     `json:"matrices"`
	MatrixVisits   uint64  `json:"matrix_visits"`
	MatricesPerSec float64 `json:"matrices_per_sec"`
	// SimulatedGFLOP is the useful simulated-kernel work the parallel
	// leg delivered (2·nnz per simulated Result, in GFLOP) and
	// SimulatedGFLOPS that work divided by wall clock - the engine's
	// headline throughput metric.
	SimulatedGFLOP  float64 `json:"simulated_gflop"`
	SimulatedGFLOPS float64 `json:"simulated_gflops"`
	// Matrix-cache effectiveness during the parallel leg.
	// CacheDuplicateGenerations counts generations that lost a
	// concurrent-miss race on one key (work done, result discarded) and
	// CacheWastedBytes the size of those discarded matrices.
	CacheHits                 uint64 `json:"cache_hits"`
	CacheMisses               uint64 `json:"cache_misses"`
	CacheEvictions            uint64 `json:"cache_evictions"`
	CacheDuplicateGenerations uint64 `json:"cache_duplicate_generations"`
	CacheWastedBytes          uint64 `json:"cache_wasted_bytes"`
	UnixTime                  int64  `json:"unix_time"`
}

// renderTables concatenates a run's rendered tables for output comparison.
func renderTables(tables []*stats.Table) string {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// allEmpty reports whether no table has a data row.
func allEmpty(tables []*stats.Table) bool {
	for _, t := range tables {
		if t.Rows() > 0 {
			return false
		}
	}
	return true
}

// Bench measures one experiment three times - on the serial reference
// engine, on the configured parallel engine with exact pricing, and on the
// same engine with the analytic pricing fast path enabled - and returns the
// perf record. All legs produce identical tables (the determinism tests and
// the analytic oracle tests prove it); only the wall clock differs. Bench
// refuses to return a record whose measured leg simulated no FLOPs or
// rendered only empty tables.
func Bench(cfg Config, id string) (*BenchRecord, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}

	run := func(c Config) (float64, []*stats.Table, error) {
		start := time.Now() //sccvet:allow nondeterminism Bench measures host wall time by design; the simulated tables stay deterministic
		tables, err := e.Run(c)
		return time.Since(start).Seconds(), tables, err //sccvet:allow nondeterminism Bench measures host wall time by design; the simulated tables stay deterministic
	}

	// Seed-equivalent reference leg: single-threaded, no shared sweep
	// walks, no matrix memoisation - what the pre-parallel engine did.
	serialCfg := cfg
	serialCfg.Sequential = true
	serialCfg.Parallelism = 1
	serialCfg.MatrixCache = sparse.NewMatrixCache(0)
	serialSec, _, err := run(serialCfg)
	if err != nil {
		return nil, err
	}

	parCfg := cfg
	parCfg.Pricing = sim.PricingExact
	if parCfg.MatrixCache == nil {
		// A private cache isolates the measured leg from earlier runs in
		// the same process.
		parCfg.MatrixCache = sparse.NewMatrixCache(DefaultMatrixCacheBytes)
	}
	cacheBefore := parCfg.MatrixCache.Stats()
	flopsBefore := sim.SimulatedFLOPs()
	parSec, parTables, err := run(parCfg)
	if err != nil {
		return nil, err
	}
	cacheAfter := parCfg.MatrixCache.Stats()
	flops := sim.SimulatedFLOPs() - flopsBefore
	// A leg that simulated nothing timed matrix generation or cache hits,
	// not the engine: its "speedup" would be meaningless.
	if flops == 0 {
		return nil, fmt.Errorf("experiments: bench %s: the measured leg simulated no FLOPs", id)
	}
	if allEmpty(parTables) {
		return nil, fmt.Errorf("experiments: bench %s: the measured leg rendered only empty tables", id)
	}
	parOut := renderTables(parTables)
	gflop := float64(flops) / 1e9
	visits := (cacheAfter.Hits - cacheBefore.Hits) + (cacheAfter.Misses - cacheBefore.Misses)

	// Analytic leg: same engine, pricing on auto so cells go analytic
	// exactly where that is provably bit-identical. A fresh matrix cache
	// keeps its profile store private to the measured leg.
	anCfg := cfg
	anCfg.Pricing = sim.PricingAuto
	anCfg.MatrixCache = sparse.NewMatrixCache(DefaultMatrixCacheBytes)
	builtB, reusedB, analyticB, exactB := sim.PricingCounters()
	anSec, anTables, err := run(anCfg)
	if err != nil {
		return nil, err
	}
	builtA, reusedA, analyticA, exactA := sim.PricingCounters()

	rec := &BenchRecord{
		Experiment:                id,
		Scale:                     cfg.Scale,
		Stride:                    cfg.Stride,
		MaxMatrices:               cfg.MaxMatrices,
		GoMaxProcs:                runtime.GOMAXPROCS(0),
		Parallelism:               cfg.Parallelism,
		SerialSec:                 serialSec,
		ParallelSec:               parSec,
		AnalyticSec:               anSec,
		OutputIdentical:           renderTables(anTables) == parOut,
		ProfilesBuilt:             builtA - builtB,
		ProfilesReused:            reusedA - reusedB,
		CellsAnalytic:             analyticA - analyticB,
		CellsExact:                exactA - exactB,
		Matrices:                  cfg.MatrixCount(),
		MatrixVisits:              visits,
		SimulatedGFLOP:            gflop,
		CacheHits:                 cacheAfter.Hits - cacheBefore.Hits,
		CacheMisses:               cacheAfter.Misses - cacheBefore.Misses,
		CacheEvictions:            cacheAfter.Evictions - cacheBefore.Evictions,
		CacheDuplicateGenerations: cacheAfter.DuplicateGenerations - cacheBefore.DuplicateGenerations,
		CacheWastedBytes:          cacheAfter.WastedBytes - cacheBefore.WastedBytes,
		UnixTime:                  time.Now().Unix(), //sccvet:allow nondeterminism record timestamp metadata, not a simulated quantity
	}
	if parSec > 0 {
		rec.Speedup = serialSec / parSec
		rec.MatricesPerSec = float64(visits) / parSec
		rec.SimulatedGFLOPS = gflop / parSec
	}
	if anSec > 0 {
		rec.AnalyticSpeedup = parSec / anSec
	}
	return rec, nil
}
