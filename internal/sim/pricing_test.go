package sim

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/scc"
	"repro/internal/sparse"
)

// l2geom builds a TrueLRU write-back L2 config at the SCC line size.
func l2geom(sizeBytes, ways int) *cache.Config {
	return &cache.Config{
		SizeBytes:   sizeBytes,
		LineBytes:   scc.CacheLineBytes,
		Ways:        ways,
		WriteBack:   true,
		Replacement: cache.TrueLRU,
	}
}

// requireSameResults asserts two Results are bit-identical in every field the
// pricing backend influences: per-core cache counters, timing splits, the
// derived run metrics and the product vector.
func requireSameResults(t *testing.T, label string, exact, got *Result) {
	t.Helper()
	if len(exact.PerCore) != len(got.PerCore) {
		t.Fatalf("%s: core count %d vs %d", label, len(exact.PerCore), len(got.PerCore))
	}
	for i := range exact.PerCore {
		e, g := exact.PerCore[i], got.PerCore[i]
		if e.Cache != g.Cache {
			t.Fatalf("%s: core %d cache stats\nexact    %+v\nanalytic %+v", label, i, e.Cache, g.Cache)
		}
		if e != g {
			t.Fatalf("%s: core %d result\nexact    %+v\nanalytic %+v", label, i, e, g)
		}
	}
	if exact.TimeSec != got.TimeSec || exact.GFLOPS != got.GFLOPS || exact.MFLOPS != got.MFLOPS ||
		exact.PowerWatts != got.PowerWatts || exact.MFLOPSPerWatt != got.MFLOPSPerWatt {
		t.Fatalf("%s: run metrics differ: exact (t=%v gflops=%v) analytic (t=%v gflops=%v)",
			label, exact.TimeSec, exact.GFLOPS, got.TimeSec, got.GFLOPS)
	}
	for i := range exact.Y {
		if exact.Y[i] != got.Y[i] {
			t.Fatalf("%s: y[%d] = %v exact vs %v analytic", label, i, exact.Y[i], got.Y[i])
		}
	}
}

// TestAnalyticOracleL2Sweep is the tentpole regression: across testbed-style
// matrices and a grid of TrueLRU L2 geometries, the analytic pricing backend
// must reproduce the exact per-access simulator bit-for-bit - per-core
// HierarchyStats, timing and product alike. It also covers the L2-disabled
// machine and the cold-cache (single-pass) protocol.
func TestAnalyticOracleL2Sweep(t *testing.T) {
	matrices := []*sparse.CSR{fixBig, fixSmall, fixIrr}
	geoms := []*cache.Config{
		l2geom(64<<10, 2),
		l2geom(128<<10, 4),
		l2geom(256<<10, 4),
		l2geom(512<<10, 8),
		l2geom(192<<10, 3), // non-power-of-two ways: TrueLRU-only geometry
	}
	for _, a := range matrices {
		for gi, g := range geoms {
			// The cold-cache variant only needs one geometry per matrix.
			colds := []bool{false}
			if gi == 0 {
				colds = []bool{false, true}
			}
			for _, cold := range colds {
				label := fmt.Sprintf("%s/geom%d/cold=%t", a.Name, gi, cold)
				m := NewMachine(scc.Conf0)
				m.L2Geom = g
				opts := Options{UEs: 12, ColdCache: cold}

				opts.Pricing = PricingExact
				exact, err := m.RunSpMV(a, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				opts.Pricing = PricingAnalytic
				opts.Profiles = sparse.NewMatrixCache(1 << 30)
				an, err := m.RunSpMV(a, nil, opts)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResults(t, label, exact, an)
			}
		}
	}

	// L2 disabled: the analytic path must reproduce the write-through
	// memory accounting too.
	m := NewMachine(scc.Conf0)
	m.WithL2 = false
	exact, err := m.RunSpMV(fixSmall, nil, Options{UEs: 8, Pricing: PricingExact})
	if err != nil {
		t.Fatal(err)
	}
	an, err := m.RunSpMV(fixSmall, nil, Options{UEs: 8, Pricing: PricingAnalytic})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResults(t, "l2-off", exact, an)
}

// TestAnalyticOracleSweepAndVariants covers the sweep entry point (several
// clock configurations priced from one profile) and the no-x-miss kernel.
func TestAnalyticOracleSweepAndVariants(t *testing.T) {
	mk := func() []*Machine {
		ms := make([]*Machine, 0, 3)
		for _, cfg := range []scc.ClockConfig{scc.Conf0, scc.Conf1, scc.Conf2} {
			m := NewMachine(cfg)
			m.L2Geom = l2geom(256<<10, 4)
			ms = append(ms, m)
		}
		return ms
	}
	for _, variant := range []Variant{KernelStandard, KernelNoXMiss} {
		opts := Options{UEs: 16, Variant: variant, Pricing: PricingExact}
		exact, err := RunSpMVSweep(mk(), fixIrr, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		opts.Pricing = PricingAnalytic
		opts.Profiles = sparse.NewMatrixCache(1 << 30)
		an, err := RunSpMVSweep(mk(), fixIrr, nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		for j := range exact {
			requireSameResults(t, fmt.Sprintf("variant=%v machine=%d", variant, j), exact[j], an[j])
		}
	}
}

// TestAnalyticProfileReuse proves trace-once, price-many: a second run with
// the same store rebuilds nothing, and a different geometry prices from the
// SAME profile while staying exact.
func TestAnalyticProfileReuse(t *testing.T) {
	store := sparse.NewMatrixCache(1 << 30)
	run := func(g *cache.Config, pricing Pricing) *Result {
		t.Helper()
		m := NewMachine(scc.Conf0)
		m.L2Geom = g
		r, err := m.RunSpMV(fixSmall, nil, Options{UEs: 8, Pricing: pricing, Profiles: store})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}

	b0, r0, c0, _ := PricingCounters()
	run(l2geom(256<<10, 4), PricingAnalytic)
	b1, r1, _, _ := PricingCounters()
	if b1 != b0+1 || r1 != r0 {
		t.Fatalf("first run: built %d->%d reused %d->%d, want one build", b0, b1, r0, r1)
	}
	run(l2geom(256<<10, 4), PricingAnalytic)
	run(l2geom(64<<10, 2), PricingAnalytic) // new geometry, same stream
	b2, r2, c2, _ := PricingCounters()
	if b2 != b1 {
		t.Fatalf("profile rebuilt on reuse: built %d -> %d", b1, b2)
	}
	if r2 != r1+2 {
		t.Fatalf("reused %d -> %d, want +2", r1, r2)
	}
	if c2 != c0+3 {
		t.Fatalf("cells analytic %d -> %d, want +3", c0, c2)
	}
	st := store.Stats()
	if st.ProfileResident != 1 || st.ProfileUsedBytes <= 0 {
		t.Fatalf("store: %+v, want one resident profile", st)
	}

	// The reused profile still prices the new geometry exactly.
	m := NewMachine(scc.Conf0)
	m.L2Geom = l2geom(64<<10, 2)
	exact, err := m.RunSpMV(fixSmall, nil, Options{UEs: 8, Pricing: PricingExact})
	if err != nil {
		t.Fatal(err)
	}
	an := run(l2geom(64<<10, 2), PricingAnalytic)
	requireSameResults(t, "reused-profile", exact, an)
}

// TestPricingAutoSelection pins auto mode's contract: it goes analytic only
// when that is provably identical to the exact walk (a TrueLRU L2, no
// structural blocker, a profile store present) and NEVER changes output. A
// machine with no L2 prices exactly from a profile too, but auto walks it:
// its profile would price that one geometry only.
func TestPricingAutoSelection(t *testing.T) {
	cases := []struct {
		name     string
		mutate   func(*Machine, *Options)
		analytic bool
	}{
		{"lru-l2+store", func(m *Machine, o *Options) {
			m.L2Geom = l2geom(256<<10, 4)
			o.Profiles = sparse.NewMatrixCache(1 << 30)
		}, true},
		{"no-l2+store", func(m *Machine, o *Options) {
			m.WithL2 = false
			o.Profiles = sparse.NewMatrixCache(1 << 30)
		}, false},
		{"plru-l2", func(m *Machine, o *Options) {
			o.Profiles = sparse.NewMatrixCache(1 << 30) // default L2 is tree-PLRU
		}, false},
		{"no-store", func(m *Machine, o *Options) {
			m.L2Geom = l2geom(256<<10, 4)
		}, false},
		{"prefetch", func(m *Machine, o *Options) {
			m.L2Geom = l2geom(256<<10, 4)
			m.Prefetch = true
			o.Profiles = sparse.NewMatrixCache(1 << 30)
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMachine(scc.Conf0)
			auto := Options{UEs: 6}
			tc.mutate(m, &auto)
			exact := auto
			exact.Pricing = PricingExact
			exact.Profiles = nil

			_, _, c0, e0 := PricingCounters()
			want, err := m.RunSpMV(fixSmall, nil, exact)
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.RunSpMV(fixSmall, nil, auto)
			if err != nil {
				t.Fatal(err)
			}
			_, _, c1, e1 := PricingCounters()
			wentAnalytic := c1 == c0+1
			// The reference run always prices exact; the auto run adds to
			// whichever counter its selection picked.
			wantExact := e0 + 2
			if tc.analytic {
				wantExact = e0 + 1
			}
			if wentAnalytic != tc.analytic || e1 != wantExact {
				t.Fatalf("auto path: analytic %v (cells %d->%d, exact %d->%d), want analytic=%v",
					wentAnalytic, c0, c1, e0, e1, tc.analytic)
			}
			requireSameResults(t, tc.name, want, got)
		})
	}
}

// flightKeys returns the number of keys in t.
func flightKeys(t *flightTable) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

// TestFlightTableDropsFinishedKeys runs 10k distinct keys through a
// flight table, from two goroutines that share each key, with one call in
// a hundred panicking: every call must run alone within its key, and the
// table must be empty afterwards.
func TestFlightTableDropsFinishedKeys(t *testing.T) {
	var table flightTable
	const keys = 10000
	running := make([]int, keys)
	call := func(i int) {
		defer func() { _ = recover() }()
		table.do(fmt.Sprintf("key-%d", i), func() {
			running[i]++
			defer func() { running[i]-- }()
			if running[i] != 1 {
				t.Errorf("key %d: %d calls at once", i, running[i])
			}
			if i%100 == 0 {
				panic("build failed")
			}
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < keys; i++ {
				call(i)
			}
		}()
	}
	wg.Wait()
	if n := flightKeys(&table); n != 0 {
		t.Errorf("%d keys left after every call returned", n)
	}
}

// TestProfileBuildsLeaveNoFlights builds profiles on fresh stores, the way
// each perfbench render and each daemon job does, with one build
// cancelled: none may leave an entry in profileFlights.
func TestProfileBuildsLeaveNoFlights(t *testing.T) {
	m := NewMachine(scc.Conf0)
	m.L2Geom = l2geom(256<<10, 4)
	for _, a := range []*sparse.CSR{fixSmall, fixIrr, fixSmall} {
		opts := Options{UEs: 4, Pricing: PricingAnalytic, Profiles: sparse.NewMatrixCache(1 << 30)}
		if _, err := m.RunSpMV(a, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	// The fifth context check falls inside the build, past prepare's.
	ctx := &flipCtx{Context: context.Background(), k: 5}
	if _, err := m.RunSpMV(fixSmall, nil, Options{UEs: 4, Ctx: ctx, Pricing: PricingAnalytic, Profiles: sparse.NewMatrixCache(1 << 30)}); err != context.Canceled {
		t.Fatalf("build cancelled mid-walk returned %v, want context.Canceled", err)
	}
	if n := flightKeys(&profileFlights); n != 0 {
		t.Errorf("profileFlights holds %d keys after every build returned", n)
	}
}

// TestAnalyticForcedErrors pins the structural blockers: forced analytic
// pricing must refuse (with a reason) rather than silently mis-price.
func TestAnalyticForcedErrors(t *testing.T) {
	x := make([]float64, fixSmall.Cols)
	for i := range x {
		x[i] = 1
	}
	cases := []struct {
		name string
		run  func() error
	}{
		{"prefetch", func() error {
			m := NewMachine(scc.Conf0)
			m.L2Geom = l2geom(256<<10, 4)
			m.Prefetch = true
			_, err := m.RunSpMV(fixSmall, nil, Options{UEs: 4, Pricing: PricingAnalytic})
			return err
		}},
		{"explicit-x", func() error {
			m := NewMachine(scc.Conf0)
			m.L2Geom = l2geom(256<<10, 4)
			_, err := m.RunSpMV(fixSmall, x, Options{UEs: 4, Pricing: PricingAnalytic})
			return err
		}},
		{"geometry-too-big", func() error {
			m := NewMachine(scc.Conf0)
			m.L2Geom = l2geom(32<<20, 32) // 2^15 sets, 32 ways: outside profile bounds
			_, err := m.RunSpMV(fixSmall, nil, Options{UEs: 4, Pricing: PricingAnalytic})
			return err
		}},
		{"write-through-l2", func() error {
			m := NewMachine(scc.Conf0)
			g := l2geom(256<<10, 4)
			g.WriteBack = false
			m.L2Geom = g
			_, err := m.RunSpMV(fixSmall, nil, Options{UEs: 4, Pricing: PricingAnalytic})
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); err == nil {
			t.Fatalf("%s: forced analytic pricing succeeded, want error", tc.name)
		}
	}
}

// TestAnalyticPLRUBoundedError labels the approximation: forcing analytic
// pricing on the SCC's tree-PLRU L2 is allowed, and the LRU-model stats must
// stay close to (but are not required to equal) the exact PLRU walk. The
// bound is generous - the test exists to pin that the error IS bounded and
// the path IS reachable, not to certify a tight approximation.
func TestAnalyticPLRUBoundedError(t *testing.T) {
	m := NewMachine(scc.Conf0) // stock tree-PLRU 256 KB L2
	opts := Options{UEs: 8, Pricing: PricingExact}
	exact, err := m.RunSpMV(fixIrr, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pricing = PricingAnalytic
	an, err := m.RunSpMV(fixIrr, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact.PerCore {
		e, a := exact.PerCore[i].Cache, an.PerCore[i].Cache
		if e.Accesses != a.Accesses || e.L1Hits != a.L1Hits {
			t.Fatalf("core %d: L1 side differs (%+v vs %+v) - the L1 is exact regardless of policy", i, e, a)
		}
		// LRU-vs-PLRU can move accesses between L2 hits and memory, but
		// only within the L1-miss stream. A 20% relative band on memory
		// accesses keeps the approximation honest.
		miss := float64(e.MemAccesses)
		if d := float64(a.MemAccesses) - miss; d > 0.2*miss+16 || -d > 0.2*miss+16 {
			t.Fatalf("core %d: PLRU approximation off by %v mem accesses (exact %v)", i, d, miss)
		}
	}
}

// TestAnalyticCancellation proves the fast path honours the run context at
// its boundaries exactly like the exact engine: a pre-cancelled context
// returns the context error and no result.
func TestAnalyticCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMachine(scc.Conf0)
	m.L2Geom = l2geom(256<<10, 4)
	r, err := m.RunSpMV(fixSmall, nil, Options{
		UEs: 4, Ctx: ctx, Pricing: PricingAnalytic,
		Profiles: sparse.NewMatrixCache(1 << 30),
	})
	if err == nil || r != nil {
		t.Fatalf("pre-cancelled analytic run: r=%v err=%v, want nil result and context error", r, err)
	}
}

// TestParsePricing pins the flag grammar.
func TestParsePricing(t *testing.T) {
	for s, want := range map[string]Pricing{
		"": PricingAuto, "auto": PricingAuto, "exact": PricingExact, "analytic": PricingAnalytic,
	} {
		got, err := ParsePricing(s)
		if err != nil || got != want {
			t.Fatalf("ParsePricing(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePricing("magic"); err == nil {
		t.Fatal("ParsePricing accepted garbage")
	}
	for p, s := range map[Pricing]string{PricingAuto: "auto", PricingExact: "exact", PricingAnalytic: "analytic"} {
		if p.String() != s {
			t.Fatalf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
}

// FuzzParsePricing: whatever ParsePricing accepts round-trips through
// String, and the empty string is the default mode.
func FuzzParsePricing(f *testing.F) {
	for _, s := range []string{"", "auto", "exact", "analytic", "Exact", " auto", "invalid", "magic"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := ParsePricing(s)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if s == "" && p != PricingAuto {
			t.Fatalf("ParsePricing(\"\") = %v, want %v", p, PricingAuto)
		}
		again, err := ParsePricing(p.String())
		if err != nil || again != p {
			t.Fatalf("ParsePricing(%q) = %v does not round-trip: ParsePricing(%q) = %v, %v", s, p, p.String(), again, err)
		}
	})
}
