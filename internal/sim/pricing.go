package sim

// Trace-once, price-many: the analytic pricing backend.
//
// Every experiment's wall time is dominated by the address-accurate cache
// walk, yet the per-UE access stream depends only on (matrix, layout,
// partition, kernel variant) - not on the cache geometry being evaluated.
// The L1 is fixed across all sweeps (the SCC's 16 KB write-through L1), so
// the engine simulates it once and records, per UE, a multi-geometry LRU
// stack-distance profile of the L1-to-L2 stream (trace.SetAnalyzer). That
// profile prices ANY covered L2 geometry - hits, demand memory accesses,
// write-allocate fills and dirty write-backs - in O(ways), bit-identically
// to the exact simulator wherever LRU's stack property holds (TrueLRU
// replacement, or no L2 at all). Profiles persist in the experiments
// matrix cache keyed by exact matrix content, so a geometry sweep walks
// each (matrix, partition) cell once and prices N configurations from it.
//
// Tree pseudo-LRU (the SCC's real policy) is not a stack algorithm, so
// PLRU geometries cannot be priced exactly from a stack profile. Auto mode
// therefore never selects the analytic path for a PLRU L2 - output never
// changes under auto - while forced analytic mode prices PLRU as if it
// were LRU, a clearly-labelled bounded-error approximation (see DESIGN.md
// and TestAnalyticPLRUBoundedError).

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/cache"
	"repro/internal/obs"
	"repro/internal/scc"
	"repro/internal/sparse"
	"repro/internal/trace"
)

// Pricing selects the cache-pricing backend of a run.
type Pricing int

const (
	// PricingAuto (the default) uses the analytic path only when it is
	// provably identical to the exact walk AND a profile store that can
	// retain profiles is available (a zero-budget store would force a
	// fresh trace per cell); otherwise it runs the exact simulator.
	// Output is always bit-identical to PricingExact.
	PricingAuto Pricing = iota
	// PricingExact always runs the per-access hierarchy walk.
	PricingExact
	// PricingAnalytic forces the analytic path and errors when the run is
	// structurally unpriceable (prefetch enabled, custom x, geometry
	// outside the profile bounds). On a tree-PLRU L2 the result is a
	// bounded-error LRU approximation, not the exact simulator's output.
	PricingAnalytic
)

// String implements fmt.Stringer.
func (p Pricing) String() string {
	switch p {
	case PricingAuto:
		return "auto"
	case PricingExact:
		return "exact"
	case PricingAnalytic:
		return "analytic"
	default:
		return "invalid"
	}
}

// ParsePricing parses the -pricing flag values exact|analytic|auto.
func ParsePricing(s string) (Pricing, error) {
	switch s {
	case "auto", "":
		return PricingAuto, nil
	case "exact":
		return PricingExact, nil
	case "analytic":
		return PricingAnalytic, nil
	default:
		return 0, fmt.Errorf("sim: unknown pricing mode %q (want exact, analytic or auto)", s)
	}
}

// profileSetConfig bounds the geometries persisted profiles can price:
// set counts 2^8..2^14 and up to 8 ways cover, at 32-byte lines, every
// L2 from 8 KB direct-mapped to 4 MB 8-way - comfortably spanning the
// SCC's 256 KB 4-way point and the ablation grids around it. The bounds
// are deliberately tight: the trace pass costs O(levels x ways) per
// access, so every extra level or way taxes the one walk the fast path
// ever pays for.
var profileSetConfig = trace.SetConfig{MinSetsLog2: 8, MaxSetsLog2: 14, MaxWays: 8}

// Analytic-pricing observability (internal/obs, write-only).
var (
	profilesBuilt  = obs.Default.Counter("sim.pricing.profiles_built")
	profilesReused = obs.Default.Counter("sim.pricing.profiles_reused")
	cellsAnalytic  = obs.Default.Counter("sim.pricing.cells_analytic")
	cellsExact     = obs.Default.Counter("sim.pricing.cells_exact")
)

// PricingCounters returns the cumulative pricing-path counters: profiles
// built, profiles reused from the store, and sweep cells priced by the
// analytic vs exact backend (read by the perfbench ledger and the tests).
func PricingCounters() (built, reused, analytic, exact uint64) {
	return profilesBuilt.Load(), profilesReused.Load(), cellsAnalytic.Load(), cellsExact.Load()
}

// analyticBlocker reports why the analytic path structurally cannot price
// this run ("" when it can). Exactness is a separate question - see
// usesAnalytic.
func (m *Machine) analyticBlocker(xProvided bool) string {
	if m.Prefetch {
		return "next-line prefetch perturbs replacement state per geometry"
	}
	if xProvided {
		return "explicit x vector (profiles persist the default all-ones product)"
	}
	if m.WithL2 {
		g := m.l2Config()
		if g.LineBytes != scc.CacheLineBytes {
			return fmt.Sprintf("L2 line size %d != %d", g.LineBytes, scc.CacheLineBytes)
		}
		if !g.WriteBack {
			return "write-through L2 outside the profile's write-back model"
		}
		if n := g.Sets(); n&(n-1) != 0 {
			return fmt.Sprintf("L2 set count %d is not a power of two", n)
		}
		if s := bits.TrailingZeros(uint(g.Sets())); !profileSetConfig.Covers(s, g.Ways) {
			return fmt.Sprintf("L2 geometry (2^%d sets, %d ways) outside profile bounds (2^%d-2^%d sets, <=%d ways)",
				s, g.Ways, profileSetConfig.MinSetsLog2, profileSetConfig.MaxSetsLog2, profileSetConfig.MaxWays)
		}
	}
	return ""
}

// analyticExact reports whether the analytic path reproduces the exact
// simulator bit-for-bit: LRU's stack property must hold at the L2 (TrueLRU
// replacement), or there must be no L2 to model at all.
func (m *Machine) analyticExact() bool {
	return !m.WithL2 || m.l2Config().Replacement == cache.TrueLRU
}

// usesAnalytic resolves the Pricing knob for this run. Auto only goes
// analytic when the result is provably identical to the exact walk and a
// profile store exists to amortise the trace; forced analytic errors when
// the run is structurally unpriceable.
func (m *Machine) usesAnalytic(opts *Options, xProvided bool) (bool, error) {
	switch opts.Pricing {
	case PricingExact:
		return false, nil
	case PricingAuto:
		// The store must actually RETAIN profiles, not merely exist: with
		// memoisation disabled (-cachemb 0, or a zero blob budget) PutBlob
		// is a no-op, so going analytic would silently rebuild the reuse
		// profile for every sweep cell - strictly slower than the exact
		// walk it replaces. Auto stays exact there; forcing PricingAnalytic
		// against a non-retaining store remains available (each call then
		// knowingly builds a throwaway profile).
		return opts.Profiles.RetainsBlobs() && m.analyticExact() && m.analyticBlocker(xProvided) == "", nil
	case PricingAnalytic:
		if reason := m.analyticBlocker(xProvided); reason != "" {
			return false, fmt.Errorf("sim: analytic pricing unavailable: %s", reason)
		}
		return true, nil
	default:
		return false, fmt.Errorf("sim: unknown pricing mode %d", opts.Pricing)
	}
}

// ueProfile is one UE's recorded stream: the fixed-L1 outcome, the
// multi-geometry profile of the L1-to-L2 stream, and the geometry-
// independent arithmetic results (compute cycles, nnz, owned y values) so
// pricing a new geometry re-runs nothing.
type ueProfile struct {
	// Timed-pass access counts: total probes, L1 hits, and the L1-to-L2
	// stream split by kind (L1 read misses, L1 store misses, forwarded
	// write-through store hits).
	accesses, l1Hits                     uint64
	demandReads, demandStores, fwdStores uint64
	// sets prices any covered L2 geometry over the stream.
	sets trace.SetProfile
	// compute and nnz are the timed pass's arithmetic outcome; y holds
	// the UE's owned product values aligned with its partition rows.
	compute float64
	nnz     int
	y       []float64
}

// cellProfile is the persisted unit: every UE of one (matrix, layout,
// partition, variant) cell.
type cellProfile struct {
	perUE []ueProfile
}

// SizeBytes prices the profile for the cache's byte budget.
func (p *cellProfile) SizeBytes() int64 {
	var n int64 = 64
	for i := range p.perUE {
		up := &p.perUE[i]
		n += 128 + up.sets.SizeBytes() + 8*int64(len(up.y))
	}
	return n
}

// profileKey is the content-addressed identity of a cell profile: matrix
// content plus everything else that shapes the per-UE stream. The rank-
// to-core mapping is deliberately absent - it moves a stream between
// cores but never changes it.
func profileKey(a *sparse.CSR, opts *Options) string {
	l1 := cache.SCCL1()
	return fmt.Sprintf("spmvprof/v1|m=%s|s=%s|u=%d|k=%d|cold=%t|l1=%d:%d:%d|sets=%d-%d|w=%d",
		a.ContentKey(), opts.Scheme, opts.UEs, opts.Variant, opts.ColdCache,
		l1.SizeBytes, l1.Ways, l1.LineBytes,
		profileSetConfig.MinSetsLog2, profileSetConfig.MaxSetsLog2, profileSetConfig.MaxWays)
}

// profileProber drives the fixed L1 and feeds the surviving L1-to-L2
// stream into the multi-geometry analyzer, classifying each access the
// way cache.Hierarchy would (see hierarchy.go): L1 read misses and store
// misses are demand L2 accesses, write-through store hits are forwarded
// stores. The SCC L1 is write-through, so it never writes back victims.
type profileProber struct {
	l1        *cache.Cache
	sa        *trace.SetAnalyzer
	recording bool

	accesses, l1Hits                     uint64
	demandReads, demandStores, fwdStores uint64
}

func (p *profileProber) probe(addr uint64, write bool) {
	if p.recording {
		p.accesses++
	}
	r1 := p.l1.Access(addr, write)
	line := addr >> lineShift
	if r1.Hit {
		if p.recording {
			p.l1Hits++
		}
		if r1.WroteThrough {
			if p.recording {
				p.fwdStores++
			}
			p.sa.Touch(line, trace.ForwardedStore)
		}
		return
	}
	if write && r1.WroteThrough {
		if p.recording {
			p.demandStores++
		}
		p.sa.Touch(line, trace.DemandStore)
	} else {
		if p.recording {
			p.demandReads++
		}
		p.sa.Touch(line, trace.DemandRead)
	}
}

func (p *profileProber) startPass(timed bool) {
	p.recording = timed
	p.sa.SetRecording(timed)
}

// profile packages the timed pass's counts and arithmetic outcome with the
// UE's owned y values, aligned with its partition rows.
func (p *profileProber) profile(compute float64, nnz int, y []float64, rows []int32) ueProfile {
	up := ueProfile{
		accesses:     p.accesses,
		l1Hits:       p.l1Hits,
		demandReads:  p.demandReads,
		demandStores: p.demandStores,
		fwdStores:    p.fwdStores,
		sets:         p.sa.Profile(),
		compute:      compute,
		nnz:          nnz,
		y:            make([]float64, len(rows)),
	}
	for i, ri := range rows {
		up.y[i] = y[ri]
	}
	return up
}

// priceStats converts one UE's profile into the HierarchyStats the exact
// walk would report under this machine's L2 geometry, mirroring
// cache.Hierarchy accounting term by term: demand L2 hits satisfy the
// access, demand L2 misses become memory accesses and line fills,
// forwarded-store misses add a write-allocate fill only, dirty evictions
// write back, and with the L2 disabled every store reaching below is a
// write-through word.
func (m *Machine) priceStats(up *ueProfile) cache.HierarchyStats {
	s := cache.HierarchyStats{Accesses: up.accesses, L1Hits: up.l1Hits}
	demand := up.demandReads + up.demandStores
	if !m.WithL2 {
		s.MemAccesses = demand
		s.MemLineFills = demand
		s.MemWriteThroughs = up.demandStores + up.fwdStores
		return s
	}
	g := m.l2Config()
	price, ok := up.sets.Price(bits.TrailingZeros(uint(g.Sets())), g.Ways)
	if !ok {
		// usesAnalytic vetted the geometry against profileSetConfig; a
		// profile that cannot price it is a version-skew bug.
		panic(fmt.Sprintf("sim: profile cannot price vetted L2 geometry %+v", g))
	}
	s.L2Hits = price.DemandHits
	s.MemAccesses = price.DemandMisses
	s.MemLineFills = price.DemandMisses + price.FwdMisses
	s.MemWriteBacks = price.WriteBacks
	return s
}

// profileFlights single-flights profile builds per (store, key): a
// geometry sweep fans its cells out concurrently and all of them share one
// (matrix, partition) stream, so letting every racing cell build its own
// copy would spend exactly the walks the fast path exists to avoid. The
// mutexes are never removed; the population is bounded by the distinct
// (store, cell) pairs the process ever prices.
var profileFlights sync.Map // string -> *sync.Mutex

// fetchOrBuildProfile returns the cell profile for this run, from the
// store when resident, building (and persisting) it otherwise. Builds
// against a store are single-flighted; a nil store skips both the lock and
// persistence (every call builds a throwaway profile). The build writes
// the UE-owned y values into y as a side effect, exactly like the exact
// walk would.
func fetchOrBuildProfile(lead *Machine, a *sparse.CSR, x, y []float64,
	parts [][]int32, opts Options, lay layout) (*cellProfile, error) {

	ctx := opts.ctx()
	key := profileKey(a, &opts)
	if opts.Profiles != nil {
		flight, _ := profileFlights.LoadOrStore(fmt.Sprintf("%p|%s", opts.Profiles, key), &sync.Mutex{})
		mu := flight.(*sync.Mutex)
		mu.Lock()
		defer mu.Unlock()
	}
	if v, ok := opts.Profiles.GetBlob(key); ok {
		profilesReused.Add(1)
		return v.(*cellProfile), nil
	}
	// Each UE runs the exact engine's pass protocol (walkPasses) with the
	// profiling prober: stack and L1 state warm through the untimed pass,
	// counts cover the timed pass only.
	body := func(rank int, pp *profileProber, timed bool) (float64, int) {
		return runPass(lead, a, x, y, parts[rank], pp, opts, lay, timed)
	}
	built := &cellProfile{perUE: make([]ueProfile, opts.UEs)}
	err := uePool.ForEachCtx(ctx, opts.UEs, opts.workers(), func(rank int) {
		pp := &profileProber{l1: cache.New(cache.SCCL1()), sa: trace.NewSetAnalyzer(profileSetConfig)}
		if compute, nnz, ok := walkPasses(&opts, rank, pp, body); ok {
			built.perUE[rank] = pp.profile(compute, nnz, y, parts[rank])
		}
	})
	if err != nil {
		// Cancelled: walks that stopped at a pass boundary left holes, so
		// nothing is persisted.
		return nil, err
	}
	profilesBuilt.Add(1)
	opts.Profiles.PutBlob(key, built, built.SizeBytes())
	return built, nil
}

// analyticSweep is the fast-path twin of walkExact for CSR runs: fetch or
// build the cell profile (one L1+profile walk per UE, fanned over the same
// pool), then price every (machine, UE) pair in O(ways) and replay the
// recorded y values into the shared scratch. Results land in
// results[j].PerCore exactly like the exact path's.
func analyticSweep(machines []*Machine, a *sparse.CSR, x, y []float64,
	parts [][]int32, opts Options, lay layout, results []*Result) error {

	lead := machines[0]
	ctx := opts.ctx()

	prof, err := fetchOrBuildProfile(lead, a, x, y, parts, opts, lay)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// Replay the recorded product into the sweep's shared scratch (the
	// profile-build path already wrote it, but a reused profile must
	// restore it; the assignment is idempotent either way).
	for rank := range parts {
		for i, ri := range parts[rank] {
			y[ri] = prof.perUE[rank].y[i]
		}
	}

	for j, mj := range machines {
		for rank := 0; rank < opts.UEs; rank++ {
			up := &prof.perUE[rank]
			results[j].PerCore[rank] = mj.coreResult(rank, opts.Mapping[rank], len(parts[rank]), up.nnz, up.compute, mj.priceStats(up))
		}
	}
	cellsAnalytic.Add(1)
	return nil
}
