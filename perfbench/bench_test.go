package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/sparse"
	"repro/internal/stats"
)

func TestMedianAndQuantile(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{nil, 0.5, 0},
		{[]float64{7}, 0.5, 7},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.9, 19},
		{[]float64{5, 1, 9}, 1, 9},
	} {
		if got := quantile(c.xs, c.q); got != c.want {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestQuietMedian(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		slices int
		want   float64
	}{
		{nil, 20, 0},
		{[]float64{3, 2, 5}, 20, 2},
		{[]float64{9, 9, 9, 1, 2, 3, 8, 8}, 2, 5.5},
		{[]float64{9, 9, 1, 2, 3, 8, 8, 8}, 4, 1.5},
		{[]float64{5, 5, 5, 5, 1}, 2, 5},
		{[]float64{5, 5, 5, 1, 1}, 2, 1},
	} {
		if got := quietMedian(c.xs, c.slices); got != c.want {
			t.Errorf("quietMedian(%v, %d) = %v, want %v", c.xs, c.slices, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		wantPct float64
		wantOK  bool
	}{
		{19, 0, false},
		{20, 50, true},
		{999, 90, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		pct, v, ok := tail(ramp(c.n))
		if ok != c.wantOK || pct != c.wantPct {
			t.Errorf("tail of %d samples = p%v (ok %v), want p%v (ok %v)", c.n, pct, ok, c.wantPct, c.wantOK)
			continue
		}
		if want := quantile(ramp(c.n), pct/100); ok && math.Abs(v-want) > 1e-6*want {
			t.Errorf("tail of %d samples: value %v is not the p%v quantile", c.n, v, pct)
		}
	}
}

func TestGuardRefusesZeroWorkAndContradictions(t *testing.T) {
	table := stats.NewTable("t", "a")
	table.AddRow(1)
	empty := stats.NewTable("empty", "a")
	tables := []*stats.Table{table}
	for _, c := range []struct {
		name     string
		workload string
		counts   map[string]uint64
		tables   []*stats.Table
		refuse   bool
	}{
		{"exact ok", "plru-exact", map[string]uint64{"sim.flops": 10, "sim.cells_exact": 8}, tables, false},
		{"zero flops", "plru-exact", map[string]uint64{"sim.cells_exact": 8}, tables, true},
		{"exact priced analytically", "plru-exact", map[string]uint64{"sim.flops": 10, "sim.cells_analytic": 1}, tables, true},
		{"no table", "plru-exact", map[string]uint64{"sim.flops": 10}, nil, true},
		{"empty table", "geom-analytic", map[string]uint64{"sim.flops": 10, "sim.cells_analytic": 3}, []*stats.Table{table, empty}, true},
		{"analytic ok", "geom-analytic", map[string]uint64{"sim.flops": 10, "sim.cells_analytic": 3}, tables, false},
		{"analytic never used", "geom-analytic", map[string]uint64{"sim.flops": 10, "sim.cells_exact": 3}, tables, true},
		{"no messages", "rcce-mesh", map[string]uint64{"rcce.messages": 0}, nil, true},
		{"messages", "rcce-mesh", map[string]uint64{"rcce.messages": 5}, nil, false},
	} {
		err := guard(c.workload, c.counts, c.tables)
		if (err != nil) != c.refuse {
			t.Errorf("%s: guard = %v, want refusal %v", c.name, err, c.refuse)
		}
		if err != nil && !isGuard(err) {
			t.Errorf("%s: %v is not a guard error", c.name, err)
		}
	}
}

func TestCheckDigest(t *testing.T) {
	g := map[string]string{"w": digest("tables", "csv")}
	if err := checkDigest(g, "w", digest("tables", "csv")); err != nil {
		t.Errorf("matching digest rejected: %v", err)
	}
	if err := checkDigest(g, "w", digest("tablescsv")); err == nil {
		t.Error("digest ignores part boundaries")
	}
	if err := checkDigest(g, "w", digest("tables", "csv2")); err == nil {
		t.Error("mismatching digest accepted")
	}
	if err := checkDigest(g, "other", digest("tables", "csv")); err == nil {
		t.Error("digest without a golden entry accepted")
	}
}

func TestGoldenCoversEveryOutput(t *testing.T) {
	for _, w := range workloads {
		if _, ok := golden.Outputs[w.name]; !ok && w.name != "serve-mix" {
			t.Errorf("golden.json has no digest for %s", w.name)
		}
	}
	for _, j := range servePopulation {
		if _, ok := golden.Jobs[j.key()]; !ok {
			t.Errorf("golden.json has no digest for job %s", j.key())
		}
	}
}

func TestCountsMustRepeat(t *testing.T) {
	var tl tally
	tl.checkCounts(map[string]uint64{"a": 1})
	if !tl.checkCounts(map[string]uint64{"a": 1}) || tl.failed != 0 {
		t.Fatal("repeated counts flagged")
	}
	if tl.checkCounts(map[string]uint64{"a": 2}) || tl.failed != 1 {
		t.Fatal("drifted count not flagged")
	}
}

func TestJobSequenceIsSeeded(t *testing.T) {
	seq := func(seed int64) []int {
		out := make([]int, 2000)
		for i := range out {
			out[i] = jobAt(seed, uint64(i))
		}
		return out
	}
	a, b, c := seq(42), seq(42), seq(43)
	same := 0
	seen := map[int]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seed 42 gave job %d then %d at position %d", a[i], b[i], i)
		}
		if a[i] < 0 || a[i] >= len(servePopulation) {
			t.Fatalf("job index %d outside the population", a[i])
		}
		if a[i] == c[i] {
			same++
		}
		seen[a[i]] = true
	}
	if len(seen) != len(servePopulation) {
		t.Errorf("2000 draws reached %d of %d jobs", len(seen), len(servePopulation))
	}
	if same > len(a)/4 {
		t.Errorf("seeds 42 and 43 agree at %d of %d positions", same, len(a))
	}
	keys := map[string]bool{}
	for _, j := range servePopulation {
		if _, err := j.config().Canonical(); err != nil {
			t.Errorf("job %s: %v", j.key(), err)
		}
		if keys[j.key()] {
			t.Errorf("job %s listed twice", j.key())
		}
		keys[j.key()] = true
	}
}

// The cache-layer replay must probe exactly the stream the simulator's
// exact walk probes, or its ns/access would time some other workload.
func TestReplayStreamMatchesSimulator(t *testing.T) {
	a := subsetEntries(subsetStride)[3].GenerateScaled(0.02)
	r, err := sim.NewMachine(scc.Conf0).RunSpMV(a, nil, sim.Options{UEs: 1, Pricing: sim.PricingExact})
	if err != nil {
		t.Fatal(err)
	}
	h := cache.NewSCCHierarchy(true)
	s := spmvStream(a)
	for pass := 0; pass < 2; pass++ {
		h.ResetStats()
		for _, v := range s {
			h.Access(v&^1, v&1 == 1)
		}
	}
	if got, want := h.Stats(), r.PerCore[0].Cache; got != want {
		t.Errorf("replayed stream stats %+v, simulator's %+v", got, want)
	}
	if m := cacheLayers([]*sparse.CSR{a}); m["cache.accesses"] != float64(r.PerCore[0].Cache.Accesses) {
		t.Errorf("cache.accesses = %v, want %d", m["cache.accesses"], r.PerCore[0].Cache.Accesses)
	}
}

func TestPackageGroup(t *testing.T) {
	for name, want := range map[string]string{
		"repro/internal/cache.(*Cache).Access":                                "cache",
		"repro/internal/sim.runPass[go.shape.*repro/internal/sim.hierProber]": "sim",
		"repro/internal/trace.(*setLevel).touch":                              "trace",
		"runtime.mallocgc":                                                    "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                             "runtime",
		"net/http.(*conn).serve":                                              "other",
		"main.spin":                                                           "other",
		"":                                                                    "other",
	} {
		if got := packageGroup(name); got != want {
			t.Errorf("packageGroup(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestCPUSharesDecodesRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	c := cache.New(cache.SCCL1())
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		for i := uint64(0); i < 1<<16; i++ {
			c.Access(i*4096, false)
		}
	}
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
	// The race detector's instrumentation lands in "other", so the check is
	// that cache is present and no other repository package beats it.
	for g, v := range shares {
		if g != "other" && g != "runtime" && g != "cache" && v >= shares["cache"] {
			t.Errorf("a loop over cache.Access gave %s a share of %v, cache %v", g, v, shares["cache"])
		}
	}
	if shares["cache"] == 0 {
		t.Errorf("a loop over cache.Access gave cache no samples (%v)", shares)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		var g, w []string
		for _, d := range got {
			g = append(g, d.name+" "+d.unit)
		}
		for _, d := range want {
			w = append(w, d.Name+" "+d.Unit)
		}
		if strings.Join(g, ",") != strings.Join(w, ",") {
			t.Errorf("%s metrics differ from BENCHMARK.json:\n code %v\n json %v", kind, g, w)
		}
	}
	compare("end-to-end", endToEnd, spec.EndToEnd)
	compare("per-layer", perLayer, spec.PerLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s here", i, spec.Workloads[i].Name, w.name)
		}
	}
}
