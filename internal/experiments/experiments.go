// Package experiments regenerates every table and figure of the paper's
// evaluation section, plus the ablations DESIGN.md calls out. Each
// experiment is a named, self-contained function from a Config to one or
// more rendered tables; cmd/sccsim and the repository benchmarks drive the
// same registry.
//
// The engine behind the experiments is host-parallel: independent
// (matrix, configuration) simulation cells fan out over a bounded worker
// pool, generated testbed matrices are memoised in a byte-budgeted LRU
// cache, and clock-configuration sweeps share one cache walk per matrix
// (sim.RunSpMVSweep). All of it is bit-deterministic; Parallelism: 1 with
// a zero-budget cache reproduces the serial reference path exactly.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rcce"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/stats"
)

// Experiment-harness observability (internal/obs): per-cell wall time
// and pool occupancy via cellPool, matrix fetch counts/latency via the
// matrix metrics. Snapshot consumers divide the counters by the
// snapshot's wall_seconds for cells/sec and matrices/sec. Write-only:
// the determinism tests prove tables are byte-identical with metrics
// on or off.
var (
	// cellPool fans independent (matrix, configuration) cells out and
	// records experiments.cell.tasks, experiments.cell.task_seconds and
	// experiments.cell.occupancy.
	cellPool = obs.Default.Pool("experiments.cell")
	// matrixVisits counts matrix fetches (cache hit or generation) and
	// matrixFetch times them.
	matrixVisits = obs.Default.Counter("experiments.matrix.visits")
	matrixFetch  = obs.Default.Timer("experiments.matrix.fetch_seconds")
	// cellErrors counts failed (matrix, cell) units that were isolated
	// into error rows instead of aborting a sweep (see Config.Errors).
	cellErrors = obs.Default.Counter("experiments.cell.errors")
)

// Config controls experiment scale and engine resources.
type Config struct {
	// Scale shrinks every testbed matrix (rows and nonzeros) by this
	// factor in (0, 1]. 1.0 reproduces the paper's sizes; the default
	// 0.25 keeps full sweeps to minutes on a laptop while preserving
	// the working-set ordering.
	Scale float64
	// MaxMatrices truncates the testbed to its first N entries
	// (0 = all 32). Used by quick runs and the benchmarks.
	MaxMatrices int
	// Stride keeps only every Stride-th testbed entry (0 or 1 = all),
	// composing with MaxMatrices. It preserves the ws spread while
	// cutting cost.
	Stride int
	// Parallelism bounds the host worker pool that runs independent
	// simulation cells concurrently, and is inherited by each
	// simulation's per-UE pool: 0 uses GOMAXPROCS, 1 forces the fully
	// serial reference path. Results are identical at every setting.
	Parallelism int
	// sequential forces the seed-equivalent reference engine: no worker
	// pools, no shared sweep walks (each machine of a sweep cell is
	// priced by its own full cache walk). Combined with a zero-budget
	// MatrixCache it reproduces exactly what the pre-parallel engine
	// computed per run - the determinism oracle the in-package tests
	// set directly. Output is bit-identical either way.
	sequential bool
	// MatrixCache overrides the shared generated-matrix cache. nil uses
	// a package-wide cache with DefaultMatrixCacheBytes of budget; a
	// zero-budget cache disables memoisation.
	MatrixCache *sparse.MatrixCache
	// Span, when set, is the parent trace span (typically the
	// experiment's): matrix and cell child spans nest under it and
	// per-UE walks roll up inside each cell (internal/obs). Purely
	// observational - output is identical with or without it.
	Span *obs.Span
	// Ctx bounds the whole run: a cancelled or expired context stops the
	// engine from starting further matrices and cells and aborts in-flight
	// simulations at their pass boundaries. nil means Background (never
	// cancelled), under which output is bit-identical to the pre-context
	// engine.
	Ctx context.Context
	// FailFast aborts a sweep at the first failing cell, cancelling its
	// in-flight siblings - the engine's historical all-or-nothing
	// behaviour. Without it (and with Errors attached) a failing
	// (matrix, cell) unit is recorded as an error row and the sweep
	// continues; means then cover only the completed matrices.
	FailFast bool
	// Fault is the deterministic fault-injection plan the chaos tests
	// drive (nil injects nothing; see internal/fault).
	Fault *fault.Plan
	// Pricing selects the simulator's cache-pricing backend for every
	// cell that does not pin its own: exact per-access walks, the
	// reuse-distance analytic fast path, or (the default) automatic
	// selection that only goes analytic when provably bit-identical to
	// the exact walk (see internal/sim/pricing.go). sequential runs
	// always price exact - they are the seed-equivalent reference - so
	// sequential with PricingAnalytic is rejected.
	Pricing sim.Pricing
	// Errors collects isolated per-unit failures. nil (the default for a
	// direct Run call) keeps the historical abort-on-first-error
	// semantics; Experiment.Execute attaches a log and renders it as an
	// error table after the run.
	Errors *ErrorLog
	// Engine selects the RCCE backend the executable-runtime experiments
	// run on (goroutine - the default and semantic oracle - or the
	// virtual-time DES scheduler). Purely an engine knob: both backends
	// render bit-identical tables, which the cross-engine determinism
	// tests prove. Simulated (analytic) sweeps ignore it.
	Engine rcce.Backend
	// Mesh sets the simulated chip geometry for executable-runtime
	// experiments (zero value = the real 6x4x2 SCC). Custom meshes lift
	// the 48-UE cap, e.g. 16x16x1 for a 256-core scaling sweep. A result
	// knob: different meshes render different tables.
	Mesh scc.Geometry
}

// context resolves the Ctx knob (nil means Background).
func (c Config) context() context.Context {
	if c.Ctx == nil {
		return context.Background() //sccvet:allow ctx-propagation documented nil-means-Background fallback for the Config knob
	}
	return c.Ctx
}

// DefaultMatrixCacheBytes bounds the shared generated-matrix cache. The
// testbed's CSR data is 210 MiB at the default quarter scale and 885 MiB
// at Scale=1, so either suite stays resident; stream profiles share the
// budget, and LRU eviction streams matrices when they crowd it.
const DefaultMatrixCacheBytes = 1 << 30

var sharedMatrixCache = sparse.NewMatrixCache(DefaultMatrixCacheBytes)

// DefaultConfig returns the standard configuration (quarter scale, full
// testbed).
func DefaultConfig() Config { return Config{Scale: 0.25} }

func (c Config) validate() error {
	if !(c.Scale > 0 && c.Scale <= 1) {
		return fmt.Errorf("experiments: scale %v outside (0, 1]", c.Scale)
	}
	if c.MaxMatrices < 0 || c.Stride < 0 {
		return fmt.Errorf("experiments: negative subset parameters")
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("experiments: negative parallelism")
	}
	if c.sequential && c.Parallelism > 1 {
		// sequential forces the serial reference engine, so a wider pool
		// request cannot be honoured; rejecting the combination beats
		// silently ignoring it. Parallelism 1 is allowed - it *is* the
		// serial pool.
		return fmt.Errorf("experiments: sequential with Parallelism %d: the sequential engine always runs serially; drop one of the two", c.Parallelism)
	}
	if c.sequential && c.Pricing == sim.PricingAnalytic {
		return fmt.Errorf("experiments: sequential with analytic pricing: the sequential engine is the exact reference; drop one of the two")
	}
	if err := c.Mesh.OrDefault().Validate(); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	return nil
}

// entries returns the selected testbed subset.
func (c Config) entries() []sparse.TestbedEntry {
	tb := sparse.Testbed()
	stride := c.Stride
	if stride <= 1 {
		stride = 1
	}
	var out []sparse.TestbedEntry
	for i := 0; i < len(tb); i += stride {
		out = append(out, tb[i])
	}
	if c.MaxMatrices > 0 && len(out) > c.MaxMatrices {
		out = out[:c.MaxMatrices]
	}
	return out
}

// matrixCache resolves the cache the configuration uses.
func (c Config) matrixCache() *sparse.MatrixCache {
	if c.MatrixCache != nil {
		return c.MatrixCache
	}
	return sharedMatrixCache
}

// workers resolves the Parallelism knob to a pool size.
func (c Config) workers() int {
	if c.sequential {
		return 1
	}
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// simOptions threads the engine parallelism and pricing backend into a
// cell's sim options unless the cell pinned its own.
func (c Config) simOptions(o sim.Options) sim.Options {
	if c.sequential {
		// Seed-equivalent reference: serial, exact, no profile store.
		o.Parallelism = 1
		o.Pricing = sim.PricingExact
		o.Profiles = nil
		return o
	}
	if o.Parallelism == 0 {
		o.Parallelism = c.Parallelism
	}
	if o.Pricing == sim.PricingAuto {
		o.Pricing = c.Pricing
	}
	if o.Profiles == nil {
		// Profiles live beside the matrices they were traced from, under
		// the same byte budget (see sparse.MatrixCache).
		o.Profiles = c.matrixCache()
	}
	return o
}

// fetchMatrix pulls one matrix through the cache under the harness's
// fetch accounting. It fails when the run's context is done or the fault
// plan errors this entry's generation.
func (c Config) fetchMatrix(e sparse.TestbedEntry) (*sparse.CSR, error) {
	if err := c.context().Err(); err != nil {
		return nil, err
	}
	if err := c.Fault.MatrixError(e.Seed(), e.Name); err != nil {
		return nil, err
	}
	start := time.Now() //sccvet:allow nondeterminism write-only fetch-time metric; never feeds experiment tables
	a := c.matrixCache().Get(e, c.Scale)
	d := time.Since(start) //sccvet:allow nondeterminism write-only fetch-time metric; never feeds experiment tables
	matrixFetch.Observe(d)
	matrixVisits.Add(1)
	obs.RecorderFrom(c.context()).RecordDur("experiments.matrix", "matrix_fetch", e.Name, "", d)
	return a, nil
}

// isolate decides whether a failed per-matrix unit of work is swallowed:
// it records the failure as an error row and returns true when graceful
// degradation is active, false when the caller must abort (FailFast, no
// error log attached, or the failure is really the run's own cancellation
// propagating). The isolation boundary is the matrix: a failing cell keeps
// its identity inside err but excludes its whole matrix from the sweep's
// aggregates, so partial rows never appear in result tables.
func (c Config) isolate(matrix string, err error) bool {
	if c.FailFast || c.Errors == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	c.Errors.record(matrix, err)
	cellErrors.Add(1)
	obs.RecorderFrom(c.context()).Record(cellTrack, "cell_error", matrix, err.Error())
	return true
}

// forEachMatrix fetches each selected matrix at the configured scale
// (generating on a cache miss), invokes fn, and lets the LRU budget decide
// what stays resident before the next one (the full-scale testbed would
// not fit in memory all at once). Matrices handed to fn are shared and
// must be treated as read-only. fn receives a copy of the configuration
// whose Span is the per-matrix child span, so runGrid calls made through
// it nest their cell spans under the matrix. A failing matrix (generation
// or fn) is isolated into an error row when Config.Errors is attached and
// FailFast is off; otherwise it aborts the walk.
func (c Config) forEachMatrix(fn func(mc Config, e sparse.TestbedEntry, a *sparse.CSR) error) error {
	for _, e := range c.entries() {
		mc := c
		mc.Span = c.Span.StartChild("matrix:" + e.Name)
		a, err := c.fetchMatrix(e)
		if err == nil {
			err = fn(mc, e, a)
		}
		mc.Span.End()
		if err != nil {
			if c.isolate(e.Name, err) {
				continue
			}
			return fmt.Errorf("experiments: matrix %s: %w", e.Name, err)
		}
	}
	return nil
}

// A sweepCell is one simulator configuration of an experiment grid: a set
// of machines differing only in clock domains (simulated with one shared
// cache walk) and the run options. Most cells sweep a single machine.
type sweepCell struct {
	machines []*sim.Machine
	opts     sim.Options
}

func oneMachine(m *sim.Machine, opts sim.Options) sweepCell {
	return sweepCell{machines: []*sim.Machine{m}, opts: opts}
}

// cellOptions threads engine parallelism, the run context and a per-cell
// child span into one cell's sim options.
func (c Config) cellOptions(ctx context.Context, o sim.Options) (sim.Options, *obs.Span) {
	o = c.simOptions(o)
	if o.Ctx == nil {
		o.Ctx = ctx
	}
	sp := c.Span.StartChild("cell")
	o.Span = sp
	return o, sp
}

// runGrid simulates every cell on matrix a, fanning independent cells out
// over the host pool. results[ci][j] is cell ci under the cell's machine
// j, bit-identical to serial individual runs regardless of pool size. Cell
// failures (injected or genuine) come back joined, each wrapped with its
// cell index; under FailFast the first failure cancels in-flight siblings.
func (c Config) runGrid(a *sparse.CSR, cells []sweepCell) ([][]*sim.Result, error) {
	ctx := c.context()
	if c.sequential {
		// Seed-equivalent reference: every machine of every cell priced
		// by its own full cache walk, in order. The sweep path is proven
		// bit-identical to this (sim's determinism tests), so only the
		// wall clock differs.
		results := make([][]*sim.Result, len(cells))
		for ci, cell := range cells {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if c.Fault.CellWedged(a.Name, ci) {
				return nil, c.wedgeCell(ctx, a.Name, ci)
			}
			if err := c.Fault.CellError(a.Name, ci); err != nil {
				return nil, fmt.Errorf("cell %d: %w", ci, err)
			}
			results[ci] = make([]*sim.Result, len(cell.machines))
			opts, sp := c.cellOptions(ctx, cell.opts)
			for j, m := range cell.machines {
				r, err := m.RunSpMV(a, nil, opts)
				if err != nil {
					sp.End()
					return nil, fmt.Errorf("cell %d: %w", ci, err)
				}
				results[ci][j] = r
			}
			sp.End()
		}
		return results, nil
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([][]*sim.Result, len(cells))
	errs := make([]error, len(cells))
	_ = cellPool.ForEachCtx(cctx, len(cells), c.workers(), func(ci int) {
		if c.Fault.CellWedged(a.Name, ci) {
			errs[ci] = c.wedgeCell(cctx, a.Name, ci)
		} else if err := c.Fault.CellError(a.Name, ci); err != nil {
			errs[ci] = err
		} else {
			opts, sp := c.cellOptions(cctx, cells[ci].opts)
			results[ci], errs[ci] = sim.RunSpMVSweep(cells[ci].machines, a, nil, opts)
			sp.End()
		}
		if errs[ci] != nil && c.FailFast {
			cancel() // a failed cell aborts its in-flight siblings promptly
		}
	})
	if err := ctx.Err(); err != nil {
		// The run's own context (signal, deadline) aborted the grid.
		return nil, err
	}
	var joined []error
	for ci, err := range errs {
		if err == nil || errors.Is(err, context.Canceled) {
			// Cancelled siblings are fallout of the root-cause cell under
			// FailFast, not failures of their own.
			continue
		}
		joined = append(joined, fmt.Errorf("cell %d: %w", ci, err))
	}
	if len(joined) > 0 {
		return nil, errors.Join(joined...)
	}
	return results, nil
}

// gridMeans generates each selected matrix once and runs every cell on it,
// returning the suite-mean MFLOPS per (cell, machine) - the inverted-loop
// core of every configuration-sweep experiment (the paper reports
// arithmetic means across the suite). An isolated failing matrix (see
// Config.Errors) is excluded from the means; with no failures the
// contributions arrive in the exact order of the historical fixed-size
// walk, so the means are bit-identical.
func (c Config) gridMeans(cells []sweepCell) ([][]float64, error) {
	vals := make([][][]float64, len(cells)) // [cell][machine] -> per-matrix values
	for ci, cell := range cells {
		vals[ci] = make([][]float64, len(cell.machines))
	}
	for _, e := range c.entries() {
		mc := c
		mc.Span = c.Span.StartChild("matrix:" + e.Name)
		a, err := c.fetchMatrix(e)
		if err == nil {
			var rs [][]*sim.Result
			rs, err = mc.runGrid(a, cells)
			if err == nil {
				for ci := range cells {
					for j := range rs[ci] {
						vals[ci][j] = append(vals[ci][j], rs[ci][j].MFLOPS)
					}
				}
			}
		}
		mc.Span.End()
		if err != nil {
			if c.isolate(e.Name, err) {
				continue
			}
			return nil, fmt.Errorf("experiments: matrix %s: %w", e.Name, err)
		}
	}
	means := make([][]float64, len(cells))
	for ci := range cells {
		means[ci] = make([]float64, len(vals[ci]))
		for j := range vals[ci] {
			means[ci][j] = stats.Mean(vals[ci][j])
		}
	}
	return means, nil
}

// meanMFLOPS runs one simulator configuration across the subset and
// averages MFLOPS.
func (c Config) meanMFLOPS(m *sim.Machine, opts sim.Options) (float64, error) {
	means, err := c.gridMeans([]sweepCell{oneMachine(m, opts)})
	if err != nil {
		return 0, err
	}
	return means[0][0], nil
}

// CellError is one isolated failure of a sweep: the matrix it happened on
// and the underlying error (which keeps the failing cell's identity, e.g.
// "cell 3: ... injected fault").
type CellError struct {
	Matrix string
	Err    error
}

// ErrorLog collects isolated failures across a run. It is safe for
// concurrent use; attach one via Config.Errors (or run through
// Experiment.Execute, which attaches one for you).
type ErrorLog struct {
	mu   sync.Mutex
	errs []CellError
}

func (l *ErrorLog) record(matrix string, err error) {
	l.mu.Lock()
	l.errs = append(l.errs, CellError{Matrix: matrix, Err: err})
	l.mu.Unlock()
}

// Errors returns a copy of the recorded failures in record order.
func (l *ErrorLog) Errors() []CellError {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]CellError(nil), l.errs...)
}

// Len reports how many failures were recorded.
func (l *ErrorLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.errs)
}

// Experiment is one regenerable artefact.
type Experiment struct {
	// ID is the registry key (e.g. "fig5").
	ID string
	// Title describes the paper artefact being regenerated.
	Title string
	// Run executes the experiment with the historical semantics: any
	// failing unit of work aborts it (unless the caller attached
	// Config.Errors itself). Prefer Execute for degradation-aware runs.
	Run func(Config) ([]*stats.Table, error)
}

// Execute runs the experiment with graceful degradation: unless FailFast
// is set, an ErrorLog is attached (if the caller didn't supply one) so
// failing (matrix, cell) units become error rows in a trailing "failed
// cells" table instead of aborting the sweep. With no failures the output
// is exactly Run's - no extra table, bit-identical rendering.
func (e Experiment) Execute(cfg Config) ([]*stats.Table, error) {
	if cfg.Errors == nil && !cfg.FailFast {
		cfg.Errors = &ErrorLog{}
	}
	tables, err := e.Run(cfg)
	if err != nil {
		return tables, err
	}
	if cfg.Errors != nil && cfg.Errors.Len() > 0 {
		t := stats.NewTable(e.Title+" - failed cells", "matrix", "error")
		for _, ce := range cfg.Errors.Errors() {
			t.AddRow(ce.Matrix, ce.Err.Error())
		}
		t.AddNote("%d unit(s) failed and were isolated; aggregates above cover only the completed matrices", cfg.Errors.Len())
		tables = append(tables, t)
	}
	return tables, nil
}

var registry []Experiment

func register(e Experiment) {
	registry = append(registry, e)
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// CoreCounts is the sweep the paper's line plots use.
var CoreCounts = []int{1, 2, 4, 8, 16, 24, 32, 48}
