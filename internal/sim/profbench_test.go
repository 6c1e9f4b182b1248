// Benchmarks splitting the analytic fast path into its three cost
// components: the exact per-access walk it replaces (the baseline a
// geometry sweep pays once per cell), the one-time profile build (an
// instrumented walk, a small constant factor over exact), and pricing a
// cell from a resident profile (microseconds - the fast path's whole
// point). The sweep-level cost is timed end to end by the perfbench
// geom-analytic workload.
package sim

import (
	"testing"

	"repro/internal/scc"
	"repro/internal/sparse"
)

func BenchmarkExactWalk(b *testing.B) {
	m := NewMachine(scc.Conf0)
	m.L2Geom = l2geom(256<<10, 4)
	for i := 0; i < b.N; i++ {
		if _, err := m.RunSpMV(fixBig, nil, Options{UEs: 24, Pricing: PricingExact}); err != nil {
			b.Fatal(err)
		}
	}
}

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
