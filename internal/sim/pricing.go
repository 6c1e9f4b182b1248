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
// The build walks each rank on a pool worker's reused walker: the L1 alone
// runs the record's two laps, and the entries each lap sent below it
// (cache.Hierarchy.Reached) feed the analyzer.
//
// Tree pseudo-LRU (the SCC's real policy) is not a stack algorithm, so
// PLRU geometries cannot be priced exactly from a stack profile. Auto mode
// therefore never selects the analytic path for a PLRU L2 - output never
// changes under auto - while forced analytic mode prices PLRU as if it
// were LRU, a clearly-labelled bounded-error approximation (see DESIGN.md
// and TestAnalyticPLRUBoundedError). Auto does not select it for a machine
// with no L2 either: that profile is exact but prices one geometry only,
// and costs more to build than the walk it replaces.

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
	// PricingAuto (the default) uses the analytic path only for a
	// TrueLRU L2, where it is provably identical to the exact walk, AND
	// when a profile store that can retain profiles is available (a
	// zero-budget store would force a fresh trace per cell); otherwise,
	// a machine with no L2 included, it runs the exact simulator. Output
	// is always bit-identical to PricingExact.
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

// usesAnalytic resolves the Pricing knob for this run. Auto only goes
// analytic for a TrueLRU L2, where the result is provably identical to the
// exact walk, and when a profile store exists to amortise the trace; forced
// analytic errors when the run is structurally unpriceable.
func (m *Machine) usesAnalytic(opts *Options, xProvided bool) (bool, error) {
	switch opts.Pricing {
	case PricingExact:
		return false, nil
	case PricingAuto:
		// Pricing is exact without an L2 too, but such a profile prices
		// one geometry, the L1 alone, and building it costs more than the
		// walk it replaces, so auto walks. The store must actually RETAIN
		// profiles, not merely exist: with memoisation disabled (-cachemb
		// 0, or a zero blob budget) PutBlob is a no-op, so going analytic
		// would silently rebuild the reuse profile for every sweep cell -
		// strictly slower than the exact walk it replaces. Auto stays exact
		// there; forcing PricingAnalytic remains available in both cases
		// (each call then knowingly builds a throwaway profile).
		return m.WithL2 && m.l2Config().Replacement == cache.TrueLRU &&
			opts.Profiles.RetainsBlobs() && m.analyticBlocker(xProvided) == "", nil
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
	// l1 is the timed pass on the L1 alone: accesses, L1 hits, and the
	// L1-to-L2 stream as a machine with no L2 counts it.
	l1 cache.HierarchyStats
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
	return fmt.Sprintf("spmvprof/v2|m=%s|s=%s|u=%d|k=%d|cold=%t|l1=%d:%d:%d|sets=%d-%d|w=%d",
		a.ContentKey(), opts.Scheme, opts.UEs, opts.Variant, opts.ColdCache,
		l1.SizeBytes, l1.Ways, l1.LineBytes,
		profileSetConfig.MinSetsLog2, profileSetConfig.MaxSetsLog2, profileSetConfig.MaxWays)
}

// newProfileWalker makes a profile build's walker: the SCC L1 alone, with
// no L2, and an analyzer of the persisted bounds.
func newProfileWalker() *walker {
	return &walker{h: cache.NewSCCHierarchy(false), sa: trace.NewSetAnalyzer(profileSetConfig)}
}

// profileRank walks rank's pass on w and returns its profile. Each lap of
// the record runs on the L1 alone (WarmUpLines, then TimedLines), and the
// entries it sent below the L1 (Hierarchy.Reached) feed the analyzer in
// record order, classified the way cache.Hierarchy charges them: L1 read
// misses and store misses are demand L2 accesses, write-through store hits
// are forwarded stores. The analyzer records the timed lap only, and the
// L1's counts cover it alone. A ColdCache pass has no warm-up, so its one
// lap is a WarmUpLines. The record may drop L1-MRU re-reads: analytic
// pricing runs without the prefetcher.
func profileRank(opts *Options, k *kernel, rank int, w *walker, y []float64, rows []int32) (up ueProfile, ok bool) {
	h, sa := w.h, w.sa
	compute, nnz, ok := walkRank(opts, k, rank, &w.rec, true, func(ops []uint32, hits uint64, timed bool) {
		sa.SetRecording(timed)
		h.ResetStats()
		if timed && !opts.ColdCache {
			h.TimedLines(ops)
		} else {
			h.WarmUpLines(ops)
		}
		h.HitMRU(hits)
		h.Reached(ops, func(i int, forwarded bool) {
			kind := trace.DemandRead
			if forwarded {
				kind = trace.ForwardedStore
			} else if ops[i]&1 != 0 {
				kind = trace.DemandStore
			}
			sa.Touch(uint64(ops[i]>>1), kind)
		})
	})
	if !ok {
		return ueProfile{}, false
	}
	up = ueProfile{l1: h.Stats(), sets: sa.Profile(), compute: compute, nnz: nnz, y: make([]float64, len(rows))}
	for i, ri := range rows {
		up.y[i] = y[ri]
	}
	return up, true
}

// priceStats converts one UE's profile into the HierarchyStats the exact
// walk would report under this machine's L2 geometry, mirroring
// cache.Hierarchy accounting term by term: demand L2 hits satisfy the
// access, demand L2 misses become memory accesses and line fills,
// forwarded-store misses add a write-allocate fill only, dirty evictions
// write back, and with the L2 disabled every store reaching below is a
// write-through word.
func (m *Machine) priceStats(up *ueProfile) cache.HierarchyStats {
	if !m.WithL2 {
		return up.l1
	}
	s := cache.HierarchyStats{Accesses: up.l1.Accesses, L1Hits: up.l1.L1Hits}
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
// copy would spend exactly the walks the fast path exists to avoid.
var profileFlights flightTable

// flightTable runs calls one key at a time. An entry lives while a call of
// its key runs or waits, so the table holds only keys in use.
type flightTable struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one key's lock and the number of calls that hold or wait for it.
type flight struct {
	sync.Mutex
	holders int
}

// do runs fn once no other call of key is running, and drops key's entry
// when the last such call returns, whether fn returns or panics.
func (t *flightTable) do(key string, fn func()) {
	t.mu.Lock()
	f := t.m[key]
	if f == nil {
		if t.m == nil {
			t.m = make(map[string]*flight)
		}
		f = &flight{}
		t.m[key] = f
	}
	f.holders++
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		if f.holders--; f.holders == 0 {
			delete(t.m, key)
		}
		t.mu.Unlock()
	}()
	f.Lock()
	defer f.Unlock()
	fn()
}

// fetchOrBuildProfile returns the cell profile for this run, from the
// store when resident, building (and persisting) it otherwise. Builds
// against a store are single-flighted; a nil store skips both the lock and
// persistence (every call builds a throwaway profile). The build writes
// the UE-owned y values into y as a side effect, exactly like the exact
// walk would.
func fetchOrBuildProfile(a *sparse.CSR, y []float64, parts [][]int32, opts Options, k *kernel) (prof *cellProfile, err error) {
	key := profileKey(a, &opts)
	if opts.Profiles == nil {
		return getOrBuildProfile(key, y, parts, opts, k)
	}
	profileFlights.do(fmt.Sprintf("%p|%s", opts.Profiles, key), func() {
		prof, err = getOrBuildProfile(key, y, parts, opts, k)
	})
	return prof, err
}

// getOrBuildProfile is fetchOrBuildProfile within key's flight.
func getOrBuildProfile(key string, y []float64, parts [][]int32, opts Options, k *kernel) (*cellProfile, error) {
	if v, ok := opts.Profiles.GetBlob(key); ok {
		// No walk runs to notice a cancellation, so check here.
		if err := opts.ctx().Err(); err != nil {
			return nil, err
		}
		profilesReused.Add(1)
		return v.(*cellProfile), nil
	}
	// Each UE runs the exact engine's walk (walkRank) on a pool worker's
	// walker: stack and L1 state warm through the untimed lap, counts
	// cover the timed one only.
	built := &cellProfile{perUE: make([]ueProfile, opts.UEs)}
	err := eachRank(&opts, newProfileWalker, func(rank int, w *walker) {
		if up, ok := profileRank(&opts, k, rank, w, y, parts[rank]); ok {
			built.perUE[rank] = up
		}
	})
	if err != nil {
		// Cancelled: walks that stopped at a boundary left holes, so
		// nothing is persisted.
		return nil, err
	}
	profilesBuilt.Add(1)
	opts.Profiles.PutBlob(key, built, built.SizeBytes())
	return built, nil
}

// analyticSweep is the fast-path twin of walkExact for CSR runs: fetch or
// build the cell profile (one recorded walk per UE, replayed through the L1
// and the profiler, fanned over the same pool), then price every (machine,
// UE) pair in O(ways) and replay the recorded y values into the shared
// scratch. Results land in results[j].PerCore exactly like the exact
// path's.
func analyticSweep(machines []*Machine, a *sparse.CSR, y []float64,
	parts [][]int32, opts Options, k *kernel, results []*Result) error {

	prof, err := fetchOrBuildProfile(a, y, parts, opts, k)
	if err != nil {
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
