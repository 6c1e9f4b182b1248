package sim

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/scc"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Engine observability (see internal/obs): every metric below is
// write-only from the simulation's point of view - it never feeds back
// into results, and the determinism tests prove bit-identical output
// with metrics enabled or disabled at every parallelism level.
var (
	// simulatedFLOPs counts the useful floating-point operations of
	// every simulated kernel delivered by the engine (2·nnz per Result).
	simulatedFLOPs = obs.Default.Counter("sim.flops.simulated")
	// sweepRuns counts RunSpMVSweep invocations and sweepMachineRuns the
	// machine configurations they priced; machineRuns/runs is the
	// sweep-share factor (cache walks saved per invocation).
	sweepRuns        = obs.Default.Counter("sim.sweep.runs")
	sweepMachineRuns = obs.Default.Counter("sim.sweep.machine_runs")
	// uePool fans per-UE cache walks out and records sim.ue_walk.tasks,
	// sim.ue_walk.task_seconds and sim.ue_walk.occupancy.
	uePool = obs.Default.Pool("sim.ue_walk")
)

// SimulatedFLOPs returns the cumulative simulated-kernel flop count. The
// difference of two readings divided by wall time is the engine's
// simulation throughput in simulated FLOPS.
func SimulatedFLOPs() uint64 { return simulatedFLOPs.Load() }

// RunSpMV simulates one parallel y = A·x on the machine and returns timing,
// cache and power detail. x is the multiplicand; pass nil for an all-ones
// vector. The simulation is deterministic: per-UE simulations are
// independent (private cold caches, disjoint y rows), so the host-parallel
// engine (Options.Parallelism) produces bit-identical results to the
// serial reference path.
func (m *Machine) RunSpMV(a *sparse.CSR, x []float64, opts Options) (*Result, error) {
	rs, err := RunSpMVSweep([]*Machine{m}, a, x, opts)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// RunSpMVSweep simulates the same kernel invocation under several machines
// that share cache geometry and timing coefficients but may differ in
// frequency domains (e.g. conf0/conf1/conf2). The clock setting cannot
// change which cache level satisfies an access, so the expensive cache walk
// runs once per UE and every machine's stall follows from its event counts -
// every returned Result is bit-identical to machines[j].RunSpMV on its own.
func RunSpMVSweep(machines []*Machine, a *sparse.CSR, x []float64, opts Options) ([]*Result, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("sim: sweep needs at least one machine")
	}
	lead := machines[0]
	for _, mj := range machines[1:] {
		if mj.WithL2 != lead.WithL2 || mj.Prefetch != lead.Prefetch || mj.Params != lead.Params ||
			(lead.WithL2 && mj.l2Config() != lead.l2Config()) {
			return nil, fmt.Errorf("sim: sweep machines must share cache geometry and timing params")
		}
	}
	if err := prepare(machines, &opts); err != nil {
		return nil, err
	}
	lay := layoutFor(a)
	if err := checkLineRange(lay.end); err != nil {
		return nil, err
	}
	xProvided := x != nil
	if x == nil {
		x = ones(a.Cols)
	}
	if len(x) != a.Cols {
		return nil, fmt.Errorf("sim: len(x)=%d, matrix has %d columns", len(x), a.Cols)
	}
	analytic, err := lead.usesAnalytic(&opts, xProvided)
	if err != nil {
		return nil, err
	}

	parts, err := partition.Split(opts.Scheme, a, opts.UEs)
	if err != nil {
		return nil, err
	}
	// y is computed once and shared across the sweep: the arithmetic does
	// not depend on the clock configuration, and each UE owns a disjoint
	// row block, so concurrent workers never touch the same element.
	y := make([]float64, a.Rows)
	k := lead.csrKernel(a, x, y, parts, opts.Variant == KernelNoXMiss, lay)
	if analytic {
		k.priced = func(results []*Result) error {
			return analyticSweep(machines, a, y, parts, opts, &k, results)
		}
	}
	results, err := drive(machines, opts, k)
	if err != nil {
		return nil, err
	}
	sweepRuns.Add(1)
	sweepMachineRuns.Add(uint64(len(machines)))
	return results, nil
}

// ones is the all-ones multiplicand every kernel defaults to.
func ones(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	return x
}

// prepare validates a run before anything is walked: the options (rank
// mapping, variant, pricing) and every machine's clock domains. A context
// that is already done fails the run here.
func prepare(machines []*Machine, opts *Options) error {
	if err := opts.normalize(); err != nil {
		return err
	}
	if err := opts.ctx().Err(); err != nil {
		return err
	}
	for _, m := range machines {
		if err := m.Domains.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// kernel is one SpMV run as the driver sees it: the format's pass body plus
// what turns the per-rank walks into Results.
type kernel struct {
	// name is the Result's Matrix.
	name string
	// y is the product the pass bodies write, each rank its own rows.
	y []float64
	// nnz counts the flops' nonzeros: finalize reports 2·nnz flops.
	nnz int
	// rows is a rank's CoreResult.Rows.
	rows func(rank int) int
	// ops bounds the entries rank's pass records, so that its record is
	// allocated once at that capacity and never regrows.
	ops func(rank int) int
	// body is the format's pass over rank's share: it computes the
	// rank's y rows and records every line-crossing access in rec, and
	// returns the pass's compute cycles and the entries it processed.
	body func(rank int, rec *recorder) (compute float64, nnz int)
	// end is the end of a storage format's layout, which runFormat
	// checks (checkLineRange); RunSpMVSweep checks CSR's before it
	// allocates x.
	end uint64
	// priced, when set, replaces the exact walks: it fills every Result's
	// PerCore, and y, from a stream profile (CSR's analytic backend).
	priced func(results []*Result) error
}

// drive is the per-rank driver every kernel runs through; opts must have
// passed prepare. Each rank walks its share on a private cold hierarchy
// (walkExact) unless the kernel is priced from a profile. The per-core
// results then take memory-controller contention and the closing barrier,
// and finalize reports 2·k.nnz flops.
func drive(machines []*Machine, opts Options, k kernel) ([]*Result, error) {
	results := make([]*Result, len(machines))
	for j := range results {
		results[j] = &Result{
			Matrix:  k.name,
			Variant: opts.Variant,
			UEs:     opts.UEs,
			PerCore: make([]CoreResult, opts.UEs),
		}
	}
	var err error
	if k.priced != nil {
		err = k.priced(results)
	} else {
		err = walkExact(machines, opts, k, results)
	}
	if err != nil {
		// Cancelled mid-run: partial per-core results are discarded.
		return nil, err
	}
	for j, mj := range machines {
		// Every Result owns its product vector: the kernel's y is never
		// aliased out, so callers may mutate any Y freely.
		results[j].Y = append([]float64(nil), k.y...)
		mj.applyContention(results[j])
		mj.addBarrierCost(results[j])
		mj.finalize(results[j], k.nnz)
	}
	simulatedFLOPs.Add(uint64(len(machines)) * uint64(2*k.nnz))
	return results, nil
}

// walkExact fans the ranks over uePool. Each rank's recorded pass runs
// through a cold cache hierarchy, and the timed replay's event counts price
// every swept machine.
func walkExact(machines []*Machine, opts Options, k kernel, results []*Result) error {
	lead := machines[0]
	cellsExact.Add(1)
	filter := mruFilterValid(lead)
	fresh := func() *walker { return &walker{h: lead.newHierarchy()} }
	return eachRank(&opts, fresh, func(rank int, w *walker) {
		start := time.Now() //sccvet:allow nondeterminism write-only span instrumentation; never feeds simulated results
		h := w.h
		compute, nnz, ok := walkRank(&opts, &k, rank, &w.rec, filter, func(ops []uint32, hits uint64, timed bool) {
			if timed {
				h.ResetStats()
				h.TimedLines(ops)
			} else {
				h.WarmUpLines(ops)
			}
			h.HitMRU(hits)
		})
		if !ok {
			return // cancelled: the pool returns the context's error
		}
		stats := h.Stats()
		for j, mj := range machines {
			results[j].PerCore[rank] = mj.coreResult(rank, opts.Mapping[rank], k.rows(rank), nnz, compute, stats)
		}
		opts.Span.Record("ue-walk", time.Since(start)) //sccvet:allow nondeterminism write-only span instrumentation; never feeds simulated results
	})
}

// walker is one pool worker's scratch within one walk: a hierarchy and,
// for a profile build, a stack analyzer, both cleared with Reset between
// ranks, and a record buffer.
type walker struct {
	h   *cache.Hierarchy
	sa  *trace.SetAnalyzer
	rec recorder
}

// eachRank fans opts.UEs ranks over uePool and hands each one a walker.
// idle is the walk's free list of walkers: a rank takes one, reset, or
// makes one with fresh, and puts it back when done. At most one walker per
// pool worker is in use or idle at a time, so putting one back never
// blocks, and every walker is garbage once the walk returns. A sync.Pool
// would keep them past the walk (DESIGN.md §4, decision 6).
func eachRank(opts *Options, fresh func() *walker, fn func(rank int, w *walker)) error {
	idle := make(chan *walker, min(opts.workers(), opts.UEs))
	return uePool.ForEachCtx(opts.ctx(), opts.UEs, opts.workers(), func(rank int) {
		var w *walker
		select {
		case w = <-idle:
			w.h.Reset()
			if w.sa != nil {
				w.sa.Reset()
			}
		default:
			w = fresh()
		}
		defer func() { idle <- w }()
		fn(rank, w)
	})
}

// mruFilterValid reports whether a record may drop its L1-MRU re-reads
// (recorder.dropMRU) for machine m: always, unless the prefetcher can fill the
// L1, which it does with the L2 disabled.
func mruFilterValid(m *Machine) bool { return m.WithL2 || !m.Prefetch }

// walkRank runs rank's pass body once, recording its line stream into rec,
// and then hands the record to replay twice: as the untimed warm-up, then
// as the timed pass (the timed pass alone under ColdCache). With filter
// set the record drops every load that re-reads its L1 set's previous line
// and hands replay their count as hits, L1 hits that change no cache
// state. rec's buffer is reused when it is large enough. The run's context
// is checked before the record and before each replay, the cancellation
// granularity: ok=false means the walk stopped there, and since a
// context's error is permanent the uePool fan-out around the walk then
// returns it.
func walkRank(opts *Options, k *kernel, rank int, rec *recorder, filter bool, replay func(ops []uint32, hits uint64, timed bool)) (compute float64, nnz int, ok bool) {
	if opts.ctx().Err() != nil {
		return 0, 0, false
	}
	rec.reset(k.ops(rank))
	compute, nnz = k.body(rank, rec)
	if filter {
		rec.dropMRU()
	}
	passes := 2
	if opts.ColdCache {
		passes = 1
	}
	for pass := 0; pass < passes; pass++ {
		if opts.ctx().Err() != nil {
			return 0, 0, false
		}
		replay(rec.ops, rec.hits, pass == passes-1)
	}
	return compute, nnz, true
}

// coreResult prices one rank's timed pass on machine m. Memory stalls
// follow from the pass's event counts in closed form: every L2 hit stalls
// L2HitCycles, every demand memory access the core's memory latency. The
// analytic backend computes the same closed form from a stream profile, so
// exact and analytic results agree bit-for-bit wherever the profile's LRU
// model is exact.
func (m *Machine) coreResult(rank int, core scc.CoreID, rows, nnz int, compute float64, stats cache.HierarchyStats) CoreResult {
	cfg := m.Domains.ConfigFor(core)
	hops := scc.HopsToMC(core)
	cyc := cfg.CoreCycleSec()
	stall := float64(stats.L2Hits)*m.Params.L2HitCycles + float64(stats.MemAccesses)*scc.MemoryLatencyCoreCycles(hops, cfg)
	return CoreResult{
		Rank:        rank,
		Core:        core,
		Hops:        hops,
		Rows:        rows,
		NNZ:         nnz,
		ComputeSec:  compute * cyc,
		MemStallSec: stall * cyc,
		Slowdown:    1,
		TimeSec:     (compute + stall) * cyc,
		Cache:       stats,
	}
}

// finalize derives the run-level metrics from the per-core results.
func (m *Machine) finalize(res *Result, nnz int) {
	res.TimeSec = res.MaxCoreTime()
	if res.TimeSec > 0 {
		flops := 2 * float64(nnz)
		res.GFLOPS = flops / res.TimeSec / 1e9
		res.MFLOPS = res.GFLOPS * 1000
	}
	res.PowerWatts = scc.FullSystemPower(m.Domains)
	res.MFLOPSPerWatt = scc.MFLOPSPerWatt(res.GFLOPS, res.PowerWatts)
}

// workers resolves the Parallelism knob to a pool size.
func (o *Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// lineShift is the log2 of the simulated cache-line size: stream
// batching and the cache simulator must agree on line granularity or
// batched accesses would silently stop matching the hierarchy's lines.
// The two const conversions below are a compile-time guard that
// 1<<lineShift == scc.CacheLineBytes (each underflows uint and fails to
// compile if the constants ever diverge); TestLineShiftMatchesCacheLine
// double-checks at run time.
const lineShift = 5

const (
	_ = uint(scc.CacheLineBytes - 1<<lineShift)
	_ = uint(1<<lineShift - scc.CacheLineBytes)
)

// stream batches a unit-stride access sequence: the cache is probed only
// when the stream crosses into a new line; the within-line accesses are
// L1 hits whose cost is folded into NNZComputeCycles.
type stream struct {
	lastLine uint64
	valid    bool
}

func (s *stream) crossing(addr uint64) bool {
	line := addr >> lineShift // scc.CacheLineBytes-sized lines
	if s.valid && line == s.lastLine {
		return false
	}
	s.lastLine = line
	s.valid = true
	return true
}

// recorder collects one rank's pass as a line stream: each line-crossing
// access is one entry line<<1 | store, the form cache.Hierarchy.AccessLines
// takes. checkLineRange keeps every line below 2^31, so entries never wrap.
type recorder struct {
	ops []uint32
	// hits counts the loads dropMRU dropped.
	hits uint64
}

// reset empties r for a record of at most n entries, reusing its buffer
// when that holds n.
func (r *recorder) reset(n int) {
	if cap(r.ops) < n {
		r.ops = make([]uint32, 0, n)
	}
	r.ops, r.hits = r.ops[:0], 0
}

func (r *recorder) probe(addr uint64, write bool) {
	op := uint32(addr>>lineShift) << 1
	if write {
		op |= 1
	}
	r.ops = append(r.ops, op)
}

// l1Sets is the SCC L1's set count (cache.SCCL1), which dropMRU tracks;
// TestRecorderTracksL1Sets holds the two equal.
const l1Sets = 128

// dropMRU drops every load whose L1 set's previous entry was the same line,
// and counts it in hits. Replayed from any start state, that line was the
// last touched in its set, so it is resident and the set's most recently
// used way: the load hits, touching that way changes no tree bit, and the
// write-through L1 sends nothing below. So the drop depends on the stream
// alone, and one record serves every lap, unless the prefetcher fills the
// L1 between accesses (mruFilterValid). The loop does not branch on the
// entries: it writes each one and keeps it by advancing past it.
func (r *recorder) dropMRU() {
	// mru holds each set's previous entry as a load, line<<1; the odd
	// initial value matches no load.
	var mru [l1Sets]uint32
	for s := range mru {
		mru[s] = math.MaxUint32
	}
	ops, kept := r.ops, 0
	for _, op := range ops {
		last := &mru[op>>1%l1Sets]
		again := *last == op
		*last = op &^ 1
		ops[kept] = op
		if !again {
			kept++
		}
	}
	r.ops, r.hits = ops[:kept], uint64(len(ops)-kept)
}

// maxLayoutEnd bounds every kernel's layout: a record entry holds a line
// number in 31 bits, so the layout must end within 2^31 lines (64 GiB).
const maxLayoutEnd = uint64(1) << (31 + lineShift)

// checkLineRange rejects a layout ending past maxLayoutEnd, whose line
// numbers would wrap in the record.
func checkLineRange(end uint64) error {
	if end > maxLayoutEnd {
		return fmt.Errorf("sim: layout ends at byte %d, past the %d GiB a recorded line stream addresses", end, maxLayoutEnd>>30)
	}
	return nil
}

// csrKernel is the CSR kernel over parts: the standard variant, or with
// noX the no-x-miss variant that reads x[0] for every nonzero.
func (m *Machine) csrKernel(a *sparse.CSR, x, y []float64, parts [][]int32, noX bool, lay layout) kernel {
	return kernel{
		name: a.Name,
		y:    y,
		nnz:  a.NNZ(),
		rows: func(rank int) int { return len(parts[rank]) },
		ops: func(rank int) int {
			nnz := 0
			for _, i := range parts[rank] {
				nnz += int(a.Ptr[i+1] - a.Ptr[i])
			}
			return csrOps(nnz, len(parts[rank]))
		},
		body: func(rank int, rec *recorder) (float64, int) {
			return csrPass(m, a, x, y, parts[rank], rec, noX, lay)
		},
	}
}

// csrOps bounds the record of a CSR pass over rows row walks that visit nnz
// entries. ptr and y cross at most once per row walk and x is probed once
// per entry; a row walk's k index entries (4 B, 8 to a line) span at most
// k/8+2 lines, and its k values (8 B) at most k/4+2.
func csrOps(nnz, rows int) int { return nnz + nnz/8 + nnz/4 + 6*rows }

// csrPass walks the rows once, computing their y and recording every
// line-crossing access, and returns (compute cycles, nnz).
func csrPass(m *Machine, a *sparse.CSR, x, y []float64, rows []int32, rec *recorder, noX bool, lay layout) (compute float64, nnz int) {
	var ptrS, idxS, valS, yS stream

	// Hoist loop invariants: layout bases, CSR arrays and cycle prices.
	layPtr, layIdx, layVal, layX, layY := lay.ptr, lay.index, lay.val, lay.x, lay.y
	aPtr, aIdx, aVal := a.Ptr, a.Index, a.Val
	rowOverhead := m.Params.RowOverheadCycles
	nnzCompute := m.Params.NNZComputeCycles

	x0 := 0.0
	if len(x) > 0 {
		x0 = x[0]
	}
	for _, ri := range rows {
		i := int(ri)
		compute += rowOverhead
		if addr := layPtr + 4*uint64(i); ptrS.crossing(addr) {
			rec.probe(addr, false)
		}
		var t float64
		for k := aPtr[i]; k < aPtr[i+1]; k++ {
			if addr := layIdx + 4*uint64(k); idxS.crossing(addr) {
				rec.probe(addr, false)
			}
			if addr := layVal + 8*uint64(k); valS.crossing(addr) {
				rec.probe(addr, false)
			}
			if noX {
				rec.probe(layX, false)
				t += aVal[k] * x0
			} else {
				j := aIdx[k]
				rec.probe(layX+8*uint64(j), false)
				t += aVal[k] * x[j]
			}
			compute += nnzCompute
			nnz++
		}
		y[i] = t
		if addr := layY + 8*uint64(i); yS.crossing(addr) {
			rec.probe(addr, true)
		}
	}
	return compute, nnz
}

// addBarrierCost charges every core the closing RCCE barrier: UEs mesh
// round trips at the current mesh clock.
func (m *Machine) addBarrierCost(res *Result) {
	barrier := float64(res.UEs) * m.Params.BarrierMeshCyclesPerUE /
		(float64(m.Domains.MeshMHz) * 1e6)
	for i := range res.PerCore {
		res.PerCore[i].TimeSec += barrier
	}
}

// applyContention groups cores by their memory controller, computes each
// controller's saturation slowdown from the cores' traffic, and stretches
// every core's memory-stall time accordingly.
func (m *Machine) applyContention(res *Result) {
	// Controllers are grouped in a dense array indexed by controller ID,
	// not a map: sccvet's nondeterminism analyzer targets map-range loops
	// that write into result slices, and walking MC0..MC3 in ID order
	// keeps the (order-independent, but why leave it to chance) stretch
	// pass trivially deterministic.
	byMC := make([][]int, scc.NumControllers) // controller -> indices into PerCore
	for i := range res.PerCore {
		mc := scc.ControllerFor(res.PerCore[i].Core).ID
		byMC[mc] = append(byMC[mc], i)
	}
	for mcID, idxs := range byMC {
		if len(idxs) == 0 {
			continue
		}
		ctl := mem.Controller{ID: mcID, MemMHz: m.Domains.MemMHz}
		demands := make([]mem.CoreDemand, 0, len(idxs))
		for _, i := range idxs {
			c := &res.PerCore[i]
			demands = append(demands, mem.CoreDemand{
				ReadBytes:  float64(c.Cache.MemReadBytes(scc.CacheLineBytes)),
				WriteBytes: float64(c.Cache.MemWriteBytes(scc.CacheLineBytes)),
				TimeSec:    c.TimeSec,
			})
		}
		s := mem.Slowdown(ctl, demands)
		for _, i := range idxs {
			c := &res.PerCore[i]
			c.Slowdown = s
			c.TimeSec = c.ComputeSec + s*c.MemStallSec
		}
	}
}
