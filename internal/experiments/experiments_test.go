package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/stats"
)

// quickConfig returns a configuration small enough for unit tests: 10%
// scale, every fourth matrix. The scale is the smallest at which the suite
// still straddles the aggregate L2 capacity (so working-set and contention
// effects survive shrinking).
func quickConfig() Config { return Config{Scale: 0.10, Stride: 4} }

// runQuick executes an experiment at test scale and returns its tables.
func runQuick(t *testing.T, id string) []*stats.Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	tables, err := e.Run(quickConfig())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if len(tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	return tables
}

// cell extracts a float from a rendered CSV table at (row, col), 0-indexed
// data rows (header excluded).
func cell(t *testing.T, tb *stats.Table, row, col int) float64 {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(tb.CSV()), "\n")
	if row+1 >= len(lines) {
		t.Fatalf("table has %d data rows, want row %d", len(lines)-1, row)
	}
	fields := strings.Split(lines[row+1], ",")
	if col >= len(fields) {
		t.Fatalf("row %d has %d columns, want col %d", row, len(fields), col)
	}
	v, err := strconv.ParseFloat(fields[col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q not numeric: %v", row, col, fields[col], err)
	}
	return v
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"ablation-cacheblock", "ablation-formats", "ablation-l2geom", "ablation-partition", "ablation-prefetch",
		"ablation-reorder", "ablation-warmup", "analysis-distributed", "analysis-locality", "analysis-powercap", "analysis-scaling",
		"fig1", "fig10", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"latency", "rcce-scaling", "table1",
	}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %q, want %q", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("%s: incomplete registration", e.ID)
		}
	}
	if _, ok := ByID("nonexistent"); ok {
		t.Fatal("ByID found a ghost")
	}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{{Scale: 0}, {Scale: -1}, {Scale: 2}, {Scale: math.NaN()}, {Scale: 0.5, MaxMatrices: -1}} {
		if err := bad.validate(); err == nil {
			t.Errorf("config %+v accepted", bad)
		}
	}
	if err := DefaultConfig().validate(); err != nil {
		t.Fatal(err)
	}
	if err := quickConfig().validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConfigSubsetting(t *testing.T) {
	if n := len((Config{Scale: 1}).entries()); n != 32 {
		t.Fatalf("full testbed = %d entries", n)
	}
	if n := len((Config{Scale: 1, Stride: 4}).entries()); n != 8 {
		t.Fatalf("stride-4 testbed = %d entries", n)
	}
	if n := len((Config{Scale: 1, MaxMatrices: 5}).entries()); n != 5 {
		t.Fatalf("max-5 testbed = %d entries", n)
	}
	if n := len((Config{Scale: 1, Stride: 4, MaxMatrices: 3}).entries()); n != 3 {
		t.Fatalf("combined subset = %d entries", n)
	}
}

func TestTable1(t *testing.T) {
	tb := runQuick(t, "table1")[0]
	if tb.Rows() != len(quickConfig().entries()) {
		t.Fatalf("table1 has %d rows", tb.Rows())
	}
	// First entry is TSOPF: paper-scale nnz column (index 3) matches.
	if got := cell(t, tb, 0, 3); got != 13135930 {
		t.Fatalf("TSOPF nnz = %v", got)
	}
}

func TestLatencyTable(t *testing.T) {
	tb := runQuick(t, "latency")[0]
	if tb.Rows() != 4 {
		t.Fatalf("latency rows = %d", tb.Rows())
	}
	// conf0 monotone in hops; conf1 strictly faster than conf0.
	prev := 0.0
	for h := 0; h < 4; h++ {
		c0 := cell(t, tb, h, 1)
		c1 := cell(t, tb, h, 2)
		if c0 <= prev {
			t.Fatalf("conf0 latency not increasing at %d hops", h)
		}
		if c1 >= c0 {
			t.Fatalf("conf1 latency not below conf0 at %d hops", h)
		}
		prev = c0
	}
}

func TestFig3Shape(t *testing.T) {
	tb := runQuick(t, "fig3")[0]
	if tb.Rows() != 4 {
		t.Fatalf("fig3 rows = %d", tb.Rows())
	}
	// Performance decreases with hops; 3-hop ratio in a plausible band.
	prev := cell(t, tb, 0, 2)
	for h := 1; h < 4; h++ {
		cur := cell(t, tb, h, 2)
		if cur >= prev {
			t.Fatalf("fig3 not monotone at %d hops", h)
		}
		prev = cur
	}
	ratio3 := cell(t, tb, 3, 3)
	if ratio3 < 0.75 || ratio3 > 0.98 {
		t.Fatalf("3-hop ratio %.3f outside the paper's neighbourhood", ratio3)
	}
}

func TestFig5Shape(t *testing.T) {
	tb := runQuick(t, "fig5")[0]
	if tb.Rows() != len(CoreCounts) {
		t.Fatalf("fig5 rows = %d", tb.Rows())
	}
	// Speedup ~1.0 at 1-2 cores, >= 1.02 somewhere in the middle, and
	// distance >= standard - epsilon everywhere.
	sawGap := false
	for i := range CoreCounts {
		sp := cell(t, tb, i, 3)
		if sp < 0.97 {
			t.Fatalf("cores=%d: distance mapping lost badly (%.3f)", CoreCounts[i], sp)
		}
		if sp > 1.02 {
			sawGap = true
		}
	}
	// At quick scale most of the subset is L2-resident and generates no
	// memory traffic, which compresses the mapping gap; the full-scale
	// run reproduces the paper's up-to-1.2x (see EXPERIMENTS.md).
	if !sawGap {
		t.Fatal("distance reduction never won at all; paper sees up to 1.23x")
	}
	if sp1 := cell(t, tb, 0, 3); sp1 < 0.999 || sp1 > 1.001 {
		t.Fatalf("1-core speedup %.4f, want 1.0", sp1)
	}
}

func TestFig6Shape(t *testing.T) {
	tables := runQuick(t, "fig6")
	if len(tables) != 3 {
		t.Fatalf("fig6 produced %d tables", len(tables))
	}
	// At 48 cores (last table), the best fits-L2 matrix must beat the
	// worst non-fitting one.
	tb := tables[2]
	lines := strings.Split(strings.TrimSpace(tb.CSV()), "\n")[1:]
	bestFit, worstNoFit := 0.0, 1e18
	for _, ln := range lines {
		f := strings.Split(ln, ",")
		mflops, err := strconv.ParseFloat(f[5], 64)
		if err != nil {
			t.Fatal(err)
		}
		if f[4] == "yes" && mflops > bestFit {
			bestFit = mflops
		}
		if f[4] == "no" && mflops < worstNoFit {
			worstNoFit = mflops
		}
	}
	if bestFit == 0 {
		t.Skip("no L2-resident matrices in the quick subset at 48 cores")
	}
	if worstNoFit < 1e18 && bestFit < worstNoFit {
		t.Fatalf("best L2-resident %.0f below worst streaming %.0f", bestFit, worstNoFit)
	}
}

func TestFig7Shape(t *testing.T) {
	tb := runQuick(t, "fig7")[0]
	// The without/with ratio must be < 1 everywhere and smaller at 48
	// cores than at 1 core.
	first := cell(t, tb, 0, 3)
	last := cell(t, tb, tb.Rows()-1, 3)
	for i := 0; i < tb.Rows(); i++ {
		if r := cell(t, tb, i, 3); r >= 1 {
			t.Fatalf("row %d: disabling L2 did not degrade (%.3f)", i, r)
		}
	}
	if last >= first {
		t.Fatalf("degradation should grow with cores: 1-core ratio %.3f, 48-core %.3f", first, last)
	}
}

func TestFig8Shape(t *testing.T) {
	tables := runQuick(t, "fig8")
	if len(tables) != 3 {
		t.Fatalf("fig8 produced %d tables", len(tables))
	}
	for _, tb := range tables {
		for i := 0; i < tb.Rows(); i++ {
			// Local matrices can dip slightly below 1.0: removing x
			// stalls raises the demand *rate*, so the contention
			// slowdown can outweigh the saved stalls by a hair.
			if sp := cell(t, tb, i, 4); sp < 0.93 {
				t.Fatalf("no-x-miss slowed a matrix down: %.3f", sp)
			}
		}
	}
	// At 24 cores at least one matrix must clear 1.5x (the paper's
	// irregular entries exceed 2x).
	tb := tables[1]
	maxSp := 0.0
	for i := 0; i < tb.Rows(); i++ {
		if sp := cell(t, tb, i, 4); sp > maxSp {
			maxSp = sp
		}
	}
	if maxSp < 1.5 {
		t.Fatalf("max no-x speedup %.2f; paper sees > 2 for irregular matrices", maxSp)
	}
}

func TestFig9Shape(t *testing.T) {
	tables := runQuick(t, "fig9")
	if len(tables) != 2 {
		t.Fatalf("fig9 produced %d tables", len(tables))
	}
	perf, power := tables[0], tables[1]
	// conf1 speedup grows toward ~1.45 at 48 cores; conf2 between.
	last := perf.Rows() - 1
	sp1 := cell(t, perf, last, 4)
	sp2 := cell(t, perf, last, 5)
	if sp1 < 1.3 || sp1 > 1.6 {
		t.Fatalf("conf1 48-core speedup %.2f, want near 1.45", sp1)
	}
	if sp2 <= 1.0 || sp2 > sp1 {
		t.Fatalf("conf2 speedup %.2f not between 1 and conf1's %.2f", sp2, sp1)
	}
	// Memory-bound rows (1 core runs the big first matrix) must show the
	// memory-clock gap between conf1 and conf2 clearly.
	if sp1c, sp2c := cell(t, perf, 0, 4), cell(t, perf, 0, 5); sp2c >= sp1c-0.02 {
		t.Fatalf("1-core conf2 speedup %.2f not clearly below conf1 %.2f", sp2c, sp1c)
	}
	// Power column: conf0 ~83.3, conf1 ~107.4; conf1 best MFLOPS/W.
	p0 := cell(t, power, 0, 3)
	p1 := cell(t, power, 1, 3)
	if p0 < 82 || p0 > 85 || p1 < 106 || p1 > 109 {
		t.Fatalf("power anchors off: conf0=%.1f conf1=%.1f", p0, p1)
	}
	e0 := cell(t, power, 0, 4)
	e1 := cell(t, power, 1, 4)
	if e1 <= e0 {
		t.Fatalf("conf1 efficiency %.2f not above conf0 %.2f", e1, e0)
	}
}

func TestFig10Shape(t *testing.T) {
	tb := runQuick(t, "fig10")[0]
	if tb.Rows() != 7 { // 5 systems + 2 SCC configs
		t.Fatalf("fig10 rows = %d", tb.Rows())
	}
	lines := strings.Split(strings.TrimSpace(tb.CSV()), "\n")[1:]
	g := map[string]float64{}
	e := map[string]float64{}
	for _, ln := range lines {
		f := strings.SplitN(ln, ",", 5)
		gf, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.Trim(f[0], `"`)
		g[name] = gf
		ef, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		e[name] = ef
	}
	// Paper's ordering: M2050 leads, SCC beats only Itanium2.
	if g["Tesla M2050"] <= g["Tesla C1060"] {
		t.Fatal("M2050 must lead the comparison")
	}
	if g["SCC conf0"] <= g["Itanium2 Montvale"] {
		t.Fatal("SCC conf0 must beat the Itanium2")
	}
	// At quick scale the SCC average is inflated by L2-resident
	// matrices (the full-scale run restores the paper's levels), so
	// only assert the scale-robust relations.
	if g["Tesla M2050"] <= g["SCC conf1"] {
		t.Fatal("M2050 should outperform even SCC conf1")
	}
	// Efficiency: M2050 leads the *model* systems (the inflated quick-
	// scale SCC rows can nominally edge past it; the full-scale run puts
	// them back near the paper's ~12-14 MFLOPS/W); SCC beats Itanium2.
	for _, name := range []string{"Itanium2 Montvale", "Xeon X5570", "Opteron 6174", "Tesla C1060"} {
		if e[name] >= e["Tesla M2050"] {
			t.Fatalf("%s efficiency %.1f >= M2050's %.1f", name, e[name], e["Tesla M2050"])
		}
	}
	if e["SCC conf0"] <= e["Itanium2 Montvale"] {
		t.Fatal("SCC conf0 must beat Itanium2 on MFLOPS/W")
	}
}

func TestFig124Render(t *testing.T) {
	for id, needle := range map[string]string{
		"fig1": "MC0 ->",
		"fig2": "Ptr   = [0 2 3 6 7 9]",
		"fig4": "distance reduction",
	} {
		tb := runQuick(t, id)[0]
		if !strings.Contains(tb.String(), needle) {
			t.Errorf("%s output missing %q:\n%s", id, needle, tb.String())
		}
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablation-formats", "ablation-reorder", "ablation-partition", "ablation-warmup", "ablation-prefetch", "ablation-cacheblock"} {
		tables := runQuick(t, id)
		for _, tb := range tables {
			if tb.Rows() == 0 && id != "ablation-cacheblock" {
				t.Errorf("%s: empty table", id)
			}
		}
	}
}

func TestAnalysisLocalityShape(t *testing.T) {
	tb := runQuick(t, "analysis-locality")[0]
	if tb.Rows() == 0 {
		t.Fatal("no rows")
	}
	// Hit ratios in [0,1]; correlation note present.
	for i := 0; i < tb.Rows(); i++ {
		h1, h2 := cell(t, tb, i, 3), cell(t, tb, i, 4)
		if h1 < 0 || h1 > 1 || h2 < 0 || h2 > 1 {
			t.Fatalf("row %d: hit ratios %.3f/%.3f outside [0,1]", i, h1, h2)
		}
		if h2 < h1-1e-9 {
			t.Fatalf("row %d: L2 hit ratio %.3f below L1 %.3f", i, h2, h1)
		}
	}
	if !strings.Contains(tb.String(), "Spearman") {
		t.Fatal("missing correlation note")
	}
}

func TestAnalysisPowercapShape(t *testing.T) {
	tables := runQuick(t, "analysis-powercap")
	if len(tables) != 2 {
		t.Fatalf("%d tables", len(tables))
	}
	front := tables[0]
	if front.Rows() == 0 {
		t.Fatal("empty frontier")
	}
	// Frontier monotone in both columns (MFLOPS col 3, W col 4).
	for i := 1; i < front.Rows(); i++ {
		if cell(t, front, i, 3) <= cell(t, front, i-1, 3) {
			t.Fatal("frontier MFLOPS not increasing")
		}
		if cell(t, front, i, 4) < cell(t, front, i-1, 4) {
			t.Fatal("frontier watts not increasing")
		}
	}
}

func TestAnalysisScalingShape(t *testing.T) {
	tb := runQuick(t, "analysis-scaling")[0]
	if tb.Rows() == 0 {
		t.Fatal("no rows")
	}
	// Efficiencies positive and bounded sanely.
	for i := 0; i < tb.Rows(); i++ {
		for col := 3; col <= 7; col++ {
			eff := cell(t, tb, i, col)
			if eff <= 0 || eff > 4 {
				t.Fatalf("row %d col %d: efficiency %v out of range", i, col, eff)
			}
		}
	}
}

func TestAnalysisDistributedShape(t *testing.T) {
	tb := runQuick(t, "analysis-distributed")[0]
	if tb.Rows() == 0 {
		t.Fatal("no rows")
	}
	// BFS clustering wins on de-ordered matrices but can lose to the
	// natural order (block matrices); assert only well-formedness here -
	// the guaranteed BFS win is covered by spmv's partition tests.
	for i := 0; i < tb.Rows(); i++ {
		volA, volB := cell(t, tb, i, 2), cell(t, tb, i, 3)
		if volA < 0 || volB < 0 {
			t.Fatalf("row %d: negative volume", i)
		}
		share := cell(t, tb, i, 7)
		if share < 0 || share >= 1 {
			t.Fatalf("row %d: comm share %v out of [0,1)", i, share)
		}
	}
}

func TestAblationWarmupShape(t *testing.T) {
	tb := runQuick(t, "ablation-warmup")[0]
	warm := cell(t, tb, 0, 1)
	cold := cell(t, tb, 1, 1)
	if warm <= cold {
		t.Fatalf("steady state %.0f not above cold %.0f", warm, cold)
	}
}

func TestAblationPartitionShape(t *testing.T) {
	tb := runQuick(t, "ablation-partition")[0]
	bynnz := cell(t, tb, 0, 1)
	cyclic := cell(t, tb, 2, 1)
	if cyclic >= bynnz {
		t.Fatalf("cyclic %.0f should trail bynnz %.0f (stream contiguity)", cyclic, bynnz)
	}
}

func TestInvalidConfigRejectedByAllExperiments(t *testing.T) {
	for _, e := range All() {
		if _, err := e.Run(Config{Scale: -1}); err == nil {
			t.Errorf("%s accepted an invalid config", e.ID)
		}
	}
}
