// Package sim is the SCC timing simulator: it executes SpMV kernels over
// real CSR data, generates the exact per-core memory access stream, drives
// it through private L1/L2 cache models, prices every miss with the SCC's
// documented latency formula, applies memory-controller contention, and
// reports execution time, FLOPS and power. It is the engine behind every
// figure reproduction (see DESIGN.md).
package sim

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/scc"
	"repro/internal/sparse"
)

// Params are the timing coefficients of the core model, all in core cycles.
// They are the calibration surface of the simulator; DefaultParams is tuned
// so the reproduction targets in DESIGN.md hold.
type Params struct {
	// RowOverheadCycles is charged once per matrix row: loop setup,
	// pointer loads and the branch at the row end. On the in-order P54C
	// short rows make this overhead dominant, which is the paper's
	// explanation for the poor performance of matrices 24 and 25.
	RowOverheadCycles float64
	// NNZComputeCycles is charged per nonzero: the multiply-accumulate,
	// index arithmetic and the L1 accesses of the streaming loads.
	NNZComputeCycles float64
	// L2HitCycles is the additional stall when a line-crossing access
	// hits in L2.
	L2HitCycles float64
	// BarrierMeshCyclesPerUE prices the RCCE barrier that ends every
	// kernel invocation: the reference barrier is a centralised counter
	// in the MPB, costing a mesh round trip per participating UE. The
	// cost is charged once per run to every core and shrinks with the
	// mesh clock, so it only matters for small work sizes at high core
	// counts.
	BarrierMeshCyclesPerUE float64
}

// DefaultParams returns the calibrated coefficients.
func DefaultParams() Params {
	return Params{
		RowOverheadCycles:      20,
		NNZComputeCycles:       10,
		L2HitCycles:            scc.L2HitCoreCycles,
		BarrierMeshCyclesPerUE: 400,
	}
}

// Variant selects the kernel the simulator runs.
type Variant int

const (
	// KernelStandard is the paper's Figure 2 CSR SpMV.
	KernelStandard Variant = iota
	// KernelNoXMiss is the Section IV-C diagnostic variant: every x
	// reference reads x[0], eliminating irregular accesses while keeping
	// all other traffic.
	KernelNoXMiss
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case KernelStandard:
		return "standard"
	case KernelNoXMiss:
		return "no-x-miss"
	default:
		return "invalid"
	}
}

// Machine is a configured SCC instance.
type Machine struct {
	// Domains fixes the chip clocks (per-tile core clock, mesh, memory).
	Domains scc.FreqDomains
	// WithL2 enables the per-core 256 KB L2 (false models the
	// L2-disabled boot of Figure 7).
	WithL2 bool
	// Prefetch enables the next-line prefetcher in every core's cache
	// hierarchy (a software-prefetch what-if; the stock SCC has none).
	Prefetch bool
	// L2Geom overrides the per-core L2 geometry (nil keeps the SCC's
	// 256 KB 4-way write-back L2). It only matters when WithL2 is set and
	// is how the cache-geometry ablations sweep size, associativity and
	// replacement policy; the line size must stay scc.CacheLineBytes
	// because the engine's stream batching is fixed at that granularity.
	L2Geom *cache.Config
	// Params are the core timing coefficients.
	Params Params
}

// l2Config resolves the effective L2 geometry (SCCL2 unless overridden).
func (m *Machine) l2Config() cache.Config {
	if m.L2Geom != nil {
		return *m.L2Geom
	}
	return cache.SCCL2()
}

// newHierarchy builds one core's cache hierarchy per the machine options.
func (m *Machine) newHierarchy() *cache.Hierarchy {
	var l2 *cache.Cache
	if m.WithL2 {
		l2 = cache.New(m.l2Config())
	}
	h := cache.NewHierarchy(cache.New(cache.SCCL1()), l2)
	h.NextLinePrefetch = m.Prefetch
	return h
}

// NewMachine builds a machine with uniform clocks, L2 enabled and default
// timing parameters.
func NewMachine(cfg scc.ClockConfig) *Machine {
	return &Machine{
		Domains: scc.Uniform(cfg),
		WithL2:  true,
		Params:  DefaultParams(),
	}
}

// Options configures one SpMV run.
type Options struct {
	// Mapping places ranks on cores; nil means the RCCE standard
	// mapping (rank r on core r). Its length is the UE count.
	Mapping scc.Mapping
	// UEs is the unit-of-execution count used when Mapping is nil.
	UEs int
	// Variant selects the kernel.
	Variant Variant
	// Scheme picks the row partitioner (default: the paper's
	// balanced-nonzero scheme).
	Scheme partition.Scheme
	// ColdCache, when set, reports the very first (cold-cache) pass.
	// By default the simulator runs one untimed warm-up pass and times
	// the steady state, matching the paper's methodology of timing
	// repeated kernel iterations: for matrices whose per-core working
	// set fits the 256 KB L2 only compulsory misses remain, and those
	// are amortised away across iterations (Section IV-B).
	ColdCache bool
	// Parallelism bounds the host worker pool that simulates UEs
	// concurrently: 0 uses GOMAXPROCS, 1 forces the serial reference
	// path, n > 1 caps the pool at n goroutines. Per-UE simulations are
	// independent (private cold caches, disjoint y rows), so every
	// setting produces bit-identical results; 1 is kept as the
	// determinism oracle and for debugging.
	Parallelism int
	// Span, when set, receives per-UE walk timings as "ue-walk" rollup
	// entries (internal/obs). Observability is write-only: a nil or
	// non-nil span never changes any Result.
	Span *obs.Span
	// Ctx bounds the run: cancellation stops the engine from starting
	// further per-UE walks and aborts a walk before its record, its
	// warm-up replay or its timed replay; the run then returns the
	// context's error and no Result.
	// nil means Background (never cancelled), under which results are
	// bit-identical to the pre-context engine.
	Ctx context.Context
	// Pricing selects the cache-pricing backend: the exact per-access
	// hierarchy walk, the reuse-distance analytic fast path, or (the
	// default) automatic selection that only goes analytic when the
	// result is provably identical to the exact walk (see pricing.go).
	Pricing Pricing
	// Profiles is the store analytic pricing persists stream profiles in
	// (the experiments layer passes its matrix cache, so profiles live
	// beside the matrices they were traced from under one byte budget).
	// A nil store - or one that cannot retain blobs (zero byte or blob
	// budget, e.g. -cachemb 0) - disables persistence: auto mode then
	// stays exact instead of re-tracing the profile per cell, while
	// forced analytic builds a throwaway profile per call.
	Profiles *sparse.MatrixCache
}

// ctx resolves the context knob (nil means Background).
func (o *Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background() //sccvet:allow ctx-propagation documented nil-means-Background fallback for the Options knob
	}
	return o.Ctx
}

func (o *Options) normalize() error {
	if o.Mapping == nil {
		if o.UEs <= 0 {
			return fmt.Errorf("sim: options need a Mapping or a positive UE count")
		}
		o.Mapping = scc.StandardMapping(o.UEs)
	}
	o.UEs = len(o.Mapping)
	if err := o.Mapping.Validate(); err != nil {
		return err
	}
	if o.Scheme == "" {
		o.Scheme = partition.SchemeByNNZ
	}
	if o.Variant != KernelStandard && o.Variant != KernelNoXMiss {
		return fmt.Errorf("sim: unknown kernel variant %d", o.Variant)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("sim: negative parallelism %d", o.Parallelism)
	}
	if o.Pricing != PricingAuto && o.Pricing != PricingExact && o.Pricing != PricingAnalytic {
		return fmt.Errorf("sim: unknown pricing mode %d", o.Pricing)
	}
	return nil
}

// layoutBase starts every kernel's private memory window.
const layoutBase = uint64(1) << 28

// align rounds an address up to the next 64-byte boundary.
func align(v uint64) uint64 { return (v + 63) &^ 63 }

// Virtual layout of the SpMV working set in each core's private address
// space. The bases are line-aligned and far apart so arrays never share a
// cache line; sizes use the paper's element widths (4-byte Ptr/Index,
// 8-byte values and vectors).
type layout struct {
	ptr, index, val, x, y, end uint64
}

func layoutFor(a *sparse.CSR) layout {
	l := layout{ptr: layoutBase}
	l.index = align(l.ptr + 4*uint64(a.Rows+1))
	l.val = align(l.index + 4*uint64(a.NNZ()))
	l.x = align(l.val + 8*uint64(a.NNZ()))
	l.y = align(l.x + 8*uint64(a.Cols))
	l.end = l.y + 8*uint64(a.Rows)
	return l
}

// CoreResult is one core's contribution to a run.
type CoreResult struct {
	// Rank is the UE rank; Core the physical core it ran on.
	Rank int
	Core scc.CoreID
	// Hops is the distance to the core's memory controller.
	Hops int
	// Rows and NNZ are the work assigned to this core.
	Rows, NNZ int
	// ComputeSec and MemStallSec split the uncontended execution time.
	ComputeSec, MemStallSec float64
	// Slowdown is the memory-contention factor applied to MemStallSec.
	Slowdown float64
	// TimeSec is the final per-core time: Compute + Slowdown*MemStall.
	TimeSec float64
	// Cache reports the core's hierarchy counters.
	Cache cache.HierarchyStats
}

// Result is the outcome of one simulated SpMV.
type Result struct {
	// Matrix and Variant identify the run.
	Matrix  string
	Variant Variant
	// UEs is the number of units of execution.
	UEs int
	// TimeSec is the parallel execution time (max over cores; the
	// kernel ends at a barrier).
	TimeSec float64
	// GFLOPS is 2·nnz / TimeSec / 1e9, the paper's metric.
	GFLOPS float64
	// MFLOPS is the same in MFLOPS/s.
	MFLOPS float64
	// PowerWatts is the modelled full-system power during the run and
	// MFLOPSPerWatt the paper's efficiency metric against it.
	PowerWatts    float64
	MFLOPSPerWatt float64
	// PerCore holds each UE's detail.
	PerCore []CoreResult
	// Y is the computed product (for verification); meaningless for
	// KernelNoXMiss by construction.
	Y []float64
}

// MaxCoreTime returns the slowest core's time (equals TimeSec).
func (r *Result) MaxCoreTime() float64 {
	t := 0.0
	for _, c := range r.PerCore {
		if c.TimeSec > t {
			t = c.TimeSec
		}
	}
	return t
}
