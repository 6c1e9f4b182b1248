package sim

import (
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/partition"
	"repro/internal/scc"
	"repro/internal/sparse"
)

// TestRecorderTracksL1Sets holds dropMRU's set count to the SCC L1 the
// exact walk and the profile build replay through.
func TestRecorderTracksL1Sets(t *testing.T) {
	if n := cache.SCCL1().Sets(); n != l1Sets {
		t.Fatalf("SCC L1 has %d sets, dropMRU tracks %d", n, l1Sets)
	}
}

// TestFilteredReplayMatchesUnfiltered runs every kernel - CSR standard,
// no-x and cyclic, ELL, BCSR, DIA, HYB and cache-blocked - through the
// exact walk, which drops L1-MRU re-reads from its records and couples the
// timed lap to the warm-up, with the L2 on and off, with and without the
// warm-up and with and without the prefetcher. Each rank's HierarchyStats
// must equal those of its unfiltered record replayed on a new hierarchy as
// AccessLines; ResetStats; AccessLines (one AccessLines under ColdCache).
func TestFilteredReplayMatchesUnfiltered(t *testing.T) {
	type kcase struct {
		name   string
		kernel func(m *Machine) kernel
		ues    int
	}
	var cases []kcase
	ues := map[string]int{"ell": 8, "bcsr": 6, "dia": 8, "hyb": 6, "cacheblocked": 4}
	for _, fc := range formatCases(t) {
		cases = append(cases, kcase{fc.name, fc.kernel, ues[fc.name]})
	}
	a := sparse.Generate(sparse.Gen{Name: "csr", Class: sparse.PatternPowerLaw, N: 6000, NNZTarget: 60000, Seed: 31})
	for _, c := range []struct {
		name   string
		scheme partition.Scheme
		ues    int
		noX    bool
	}{
		{"csr", partition.SchemeByNNZ, 6, false},
		{"csr-noxmiss", partition.SchemeByNNZ, 6, true},
		{"csr-cyclic", partition.SchemeCyclic, 5, false},
	} {
		parts, err := partition.Split(c.scheme, a, c.ues)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, kcase{c.name, func(m *Machine) kernel {
			return m.csrKernel(a, ones(a.Cols), make([]float64, a.Rows), parts, c.noX, layoutFor(a))
		}, c.ues})
	}
	for _, c := range cases {
		for _, withL2 := range []bool{true, false} {
			for _, cold := range []bool{false, true} {
				for _, prefetch := range []bool{false, true} {
					t.Run(fmt.Sprintf("%s-l2=%v-cold=%v-prefetch=%v", c.name, withL2, cold, prefetch), func(t *testing.T) {
						m := NewMachine(scc.Conf0)
						m.WithL2, m.Prefetch = withL2, prefetch
						k := c.kernel(m)
						opts := Options{UEs: c.ues, ColdCache: cold, Parallelism: 2}
						if err := prepare([]*Machine{m}, &opts); err != nil {
							t.Fatal(err)
						}
						results := []*Result{{PerCore: make([]CoreResult, c.ues)}}
						if err := walkExact([]*Machine{m}, opts, k, results); err != nil {
							t.Fatal(err)
						}
						for rank, ops := range recordRanks(t, c.name, k, c.ues) {
							h := m.newHierarchy()
							h.AccessLines(ops)
							if !cold {
								h.ResetStats()
								h.AccessLines(ops)
							}
							if got, want := results[0].PerCore[rank].Cache, h.Stats(); got != want {
								t.Errorf("rank %d: filtered coupled replay %+v, unfiltered plain laps %+v", rank, got, want)
							}
						}
					})
				}
			}
		}
	}
}
