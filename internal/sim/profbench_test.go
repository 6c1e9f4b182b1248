// Benchmarks splitting the analytic fast path into its three cost
// components: the exact per-access walk (the walk every paper figure
// takes, and the baseline a geometry sweep pays once per cell), the
// one-time profile build (an instrumented walk, a small constant factor
// over exact), and pricing a cell from a resident profile (microseconds -
// the fast path's whole point). The sweep-level cost is timed end to end
// by the perfbench geom-analytic workload.
package sim

import (
	"testing"

	"repro/internal/scc"
	"repro/internal/sparse"
)

// BenchmarkExactWalk walks the SCC's own hierarchy, fig9's machine: a
// 256 KB 4-way tree-PLRU L2 behind the L1.
func BenchmarkExactWalk(b *testing.B) {
	m := NewMachine(scc.Conf0)
	for i := 0; i < b.N; i++ {
		if _, err := m.RunSpMV(fixBig, nil, Options{UEs: 24, Pricing: PricingExact}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileBuild and BenchmarkProfileReuse price a TrueLRU L2 of
// the SCC's size: stack-distance pricing is exact only under TrueLRU, the
// L2s the analytic fast path serves (ablation-l2geom's), so that is the
// case these two time.
func BenchmarkProfileBuild(b *testing.B) {
	m := NewMachine(scc.Conf0)
	m.L2Geom = l2geom(256<<10, 4)
	for i := 0; i < b.N; i++ {
		if _, err := m.RunSpMV(fixBig, nil, Options{UEs: 24, Pricing: PricingAnalytic}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProfileReuse(b *testing.B) {
	m := NewMachine(scc.Conf0)
	m.L2Geom = l2geom(256<<10, 4)
	store := sparse.NewMatrixCache(1 << 30)
	if _, err := m.RunSpMV(fixBig, nil, Options{UEs: 24, Pricing: PricingAnalytic, Profiles: store}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.RunSpMV(fixBig, nil, Options{UEs: 24, Pricing: PricingAnalytic, Profiles: store}); err != nil {
			b.Fatal(err)
		}
	}
}
