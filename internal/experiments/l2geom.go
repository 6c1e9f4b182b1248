package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/scc"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "ablation-l2geom",
		Title: "Ablation: L2 size and associativity (cache-geometry sweep)",
		Run:   runAblationL2Geom,
	})
}

// l2GeomSizesKB and l2GeomWays span the geometry grid around the SCC's
// 256 KB 4-way design point.
var (
	l2GeomSizesKB = []int{64, 128, 256, 512, 1024}
	l2GeomWays    = []int{2, 4, 8}
)

// runAblationL2Geom sweeps the per-core L2 geometry (size x associativity)
// around the SCC's 256 KB 4-way point at 24 cores. Every cell uses TrueLRU
// replacement so the whole grid is priceable from one stream profile per
// matrix: this experiment is the analytic fast path's showcase - under
// PricingAuto (or forced analytic) the first cell of each matrix traces the
// stream once and the other cells price their geometry in O(ways), while
// PricingExact re-walks every cell.
func runAblationL2Geom(cfg Config) ([]*stats.Table, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	mapping := scc.DistanceReductionMapping(24)
	var cells []sweepCell
	type geom struct{ kb, ways int }
	var geoms []geom
	for _, kb := range l2GeomSizesKB {
		for _, w := range l2GeomWays {
			m := sim.NewMachine(scc.Conf0)
			m.L2Geom = &cache.Config{
				SizeBytes:   kb << 10,
				LineBytes:   scc.CacheLineBytes,
				Ways:        w,
				WriteBack:   true,
				Replacement: cache.TrueLRU,
			}
			geoms = append(geoms, geom{kb, w})
			cells = append(cells, oneMachine(m, sim.Options{Mapping: mapping}))
		}
	}
	means, err := cfg.gridMeans(cells)
	if err != nil {
		return nil, err
	}
	base := 0.0
	for i, g := range geoms {
		if g.kb == 256 && g.ways == 4 {
			base = means[i][0]
		}
	}
	t := stats.NewTable(
		"Ablation - L2 geometry (24 cores, conf0, LRU write-back L2, avg MFLOPS)",
		"L2 KB", "ways", "avg MFLOPS", "vs 256KB/4w",
	)
	for i, g := range geoms {
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%.3f", means[i][0]/base)
		}
		t.AddRow(g.kb, g.ways, means[i][0], rel)
	}
	t.AddNote("TrueLRU replacement throughout: the grid shares one stream profile per matrix under analytic pricing")
	t.AddNote("the SCC ships 256 KB 4-way; tree-PLRU vs LRU differences are not modelled here")
	return []*stats.Table{t}, nil
}
