package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/scc"
	"repro/internal/sparse"
)

// formatCase is one storage-format kernel run pinned at the sim level:
// run is the runner, and kernel builds the kernel it drives.
type formatCase struct {
	name   string
	run    func(m *Machine) (*Result, error)
	kernel func(m *Machine) kernel
}

// formatCases covers every format runner, including a cache-blocked case
// that qualifies for the ablation (nnz/n >= 40, x >= 512 KB): the golden
// experiment digests render no cache-blocked row at their small scale.
func formatCases(t *testing.T) []formatCase {
	t.Helper()
	ellA := sparse.Generate(sparse.Gen{Name: "ell", Class: sparse.PatternStencil2D, N: 4000, NNZTarget: 40000, Seed: 9})
	ell, err := sparse.ToELL(ellA, 10)
	if err != nil {
		t.Fatal(err)
	}
	// 3001 rows under 3x3 blocks leaves a clipped last block row and column.
	bcsr := sparse.ToBCSR(sparse.Generate(sparse.Gen{Name: "bcsr", Class: sparse.PatternBlock, N: 3001, NNZTarget: 60000, BlockSize: 32, Seed: 10}), 3, 3)
	dia, err := sparse.ToDIA(sparse.Generate(sparse.Gen{Name: "dia", Class: sparse.PatternBanded, N: 3000, NNZTarget: 24000, Bandwidth: 16, Seed: 12}), 64)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := sparse.ToHYB(sparse.Generate(sparse.Gen{Name: "hyb", Class: sparse.PatternPowerLaw, N: 4000, NNZTarget: 40000, Seed: 13}), 0.66)
	if err != nil {
		t.Fatal(err)
	}
	cb := sparse.Generate(sparse.Gen{Name: "cb", Class: sparse.PatternRandom, N: 65536, NNZTarget: 42 * 65536, Seed: 21})
	if cb.NNZPerRow() < 40 || 8*cb.Cols/1024 < 512 {
		t.Fatalf("cache-blocked case does not qualify: nnz/n %.1f, x %d KB", cb.NNZPerRow(), 8*cb.Cols/1024)
	}
	return []formatCase{
		{"ell", func(m *Machine) (*Result, error) { return m.RunELL(ell, 8) }, func(m *Machine) kernel { return m.ellKernel(ell, 8) }},
		{"bcsr", func(m *Machine) (*Result, error) { return m.RunBCSR(bcsr, 6) }, func(m *Machine) kernel { return m.bcsrKernel(bcsr, 6) }},
		{"dia", func(m *Machine) (*Result, error) { return m.RunDIA(dia, 8) }, func(m *Machine) kernel { return m.diaKernel(dia, 8) }},
		{"hyb", func(m *Machine) (*Result, error) { return m.RunHYB(hyb, 6) }, func(m *Machine) kernel { return m.hybKernel(hyb, 6) }},
		{"cacheblocked", func(m *Machine) (*Result, error) { return m.RunCacheBlocked(cb, 16384, 4) }, func(m *Machine) kernel { return m.cacheBlockedKernel(cb, 16384, 4) }},
	}
}

// ySHA digests the product vector's IEEE-754 bits.
func ySHA(y []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range y {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

type corePin struct {
	rows, nnz               int
	computeSec, memStallSec float64
	cache                   cache.HierarchyStats
}

type formatPin struct {
	timeSec, mflops float64
	y               string
	cores           []corePin
}

// TestFormatRunnersPinned holds every format runner to the Result it
// produced before the runners moved onto the shared per-rank driver.
// Cache counters, work counts, compute time and the product bits must
// match exactly. Stall-derived times may move by rounding only: the
// driver prices stalls in closed form from the timed pass's counts, while
// the pins summed one stall term per L2 hit or memory access. A running
// sum of n terms is off by at most about n·2^-53 relative, so the bound is
// 1e-12 plus that: 1e-12 governs the small cases, and the cache-blocked
// case's ~9e5 stalling accesses per core allow ~1e-10.
func TestFormatRunnersPinned(t *testing.T) {
	m := NewMachine(scc.Conf0)
	rel := func(got, want float64, terms uint64) bool {
		return math.Abs(got-want) <= (1e-12+float64(terms)*0x1p-53)*math.Abs(want)
	}
	for _, tc := range formatCases(t) {
		want, ok := formatPins[tc.name]
		if !ok {
			t.Fatalf("%s: no pin", tc.name)
		}
		r, err := tc.run(m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var maxTerms uint64
		for _, c := range want.cores {
			maxTerms = max(maxTerms, c.cache.L2Hits+c.cache.MemAccesses)
		}
		if !rel(r.TimeSec, want.timeSec, maxTerms) || !rel(r.MFLOPS, want.mflops, maxTerms) {
			t.Errorf("%s: time %v mflops %v, pinned %v %v", tc.name, r.TimeSec, r.MFLOPS, want.timeSec, want.mflops)
		}
		if got := ySHA(r.Y); got != want.y {
			t.Errorf("%s: y digest %s, pinned %s", tc.name, got, want.y)
		}
		if len(r.PerCore) != len(want.cores) {
			t.Fatalf("%s: %d cores, pinned %d", tc.name, len(r.PerCore), len(want.cores))
		}
		for i, c := range r.PerCore {
			w := want.cores[i]
			if c.Rows != w.rows || c.NNZ != w.nnz || c.ComputeSec != w.computeSec || c.Cache != w.cache {
				t.Errorf("%s core %d: rows %d nnz %d compute %v cache %+v, pinned %d %d %v %+v",
					tc.name, i, c.Rows, c.NNZ, c.ComputeSec, c.Cache, w.rows, w.nnz, w.computeSec, w.cache)
			}
			if !rel(c.MemStallSec, w.memStallSec, w.cache.L2Hits+w.cache.MemAccesses) {
				t.Errorf("%s core %d: stall %v, pinned %v", tc.name, i, c.MemStallSec, w.memStallSec)
			}
		}
	}
}

// formatPins were recorded from the per-format engines the driver replaced.
var formatPins = map[string]formatPin{
	"ell": {timeSec: 0.00017403377110694184, mflops: 404.9558861578267, y: "c9941d003d54b21f1da3c960014777d885812a8a5d83d2853a8f28b8494f44ab", cores: []corePin{
		{500, 4266, 9.879924953095685e-05, 6.663039399624766e-05, cache.HierarchyStats{Accesses: 6079, L1Hits: 4106, L2Hits: 1973, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{500, 4452, 0.00010228893058161351, 6.774484052532833e-05, cache.HierarchyStats{Accesses: 6265, L1Hits: 4259, L2Hits: 2006, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{500, 4452, 0.00010228893058161351, 6.774484052532833e-05, cache.HierarchyStats{Accesses: 6265, L1Hits: 4259, L2Hits: 2006, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{500, 4452, 0.00010228893058161351, 6.774484052532833e-05, cache.HierarchyStats{Accesses: 6265, L1Hits: 4259, L2Hits: 2006, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{500, 4452, 0.00010228893058161351, 6.774484052532833e-05, cache.HierarchyStats{Accesses: 6265, L1Hits: 4259, L2Hits: 2006, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{500, 4452, 0.00010228893058161351, 6.774484052532833e-05, cache.HierarchyStats{Accesses: 6265, L1Hits: 4259, L2Hits: 2006, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{500, 4452, 0.00010228893058161351, 6.774484052532833e-05, cache.HierarchyStats{Accesses: 6265, L1Hits: 4259, L2Hits: 2006, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{500, 4260, 9.868667917448405e-05, 6.663039399624766e-05, cache.HierarchyStats{Accesses: 6072, L1Hits: 4099, L2Hits: 1973, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
	}},
	"bcsr": {timeSec: 0.0007366252160450745, mflops: 362.02670529226333, y: "feca67902a4b699ff0316aa21b77169bde55faba24aec51e9535bd51d0ff51c2", cores: []corePin{
		{166, 22122, 0.00042127579737335835, 0.00022839399624765479, cache.HierarchyStats{Accesses: 28107, L1Hits: 21344, L2Hits: 6763, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{167, 22284, 0.00042435272045028143, 0.0002923864587242031, cache.HierarchyStats{Accesses: 28314, L1Hits: 21490, L2Hits: 6197, MemAccesses: 627, MemLineFills: 627, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{167, 22302, 0.00042469043151969983, 0.0003065291604127605, cache.HierarchyStats{Accesses: 28337, L1Hits: 21492, L2Hits: 6082, MemAccesses: 763, MemLineFills: 763, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{167, 22374, 0.0004260412757973733, 0.00028893613508442786, cache.HierarchyStats{Accesses: 28428, L1Hits: 21557, L2Hits: 6295, MemAccesses: 576, MemLineFills: 576, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{167, 22302, 0.00042469043151969983, 0.00023119699812382738, cache.HierarchyStats{Accesses: 28336, L1Hits: 21490, L2Hits: 6846, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{167, 21955, 0.00041818011257035645, 0.0002590871106941861, cache.HierarchyStats{Accesses: 27917, L1Hits: 21146, L2Hits: 6463, MemAccesses: 308, MemLineFills: 308, MemWriteBacks: 29, MemWriteThroughs: 0, Prefetches: 0}},
	}},
	"dia": {timeSec: 0.00034261163227016883, mflops: 125.90348936543053, y: "401e5ca7e5d185e897caacac0d4d4a7094142b1d306c6258d5cb4903af1653d7", cores: []corePin{
		{375, 12239, 0.00023086303939962477, 0.00010313696060037523, cache.HierarchyStats{Accesses: 9226, L1Hits: 6172, L2Hits: 3054, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{375, 12375, 0.00023341463414634146, 0.00010516322701688555, cache.HierarchyStats{Accesses: 9389, L1Hits: 6275, L2Hits: 3114, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{375, 12375, 0.00023341463414634146, 0.00010519699812382739, cache.HierarchyStats{Accesses: 9389, L1Hits: 6274, L2Hits: 3115, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{375, 12375, 0.00023341463414634146, 0.00010404878048780487, cache.HierarchyStats{Accesses: 9322, L1Hits: 6241, L2Hits: 3081, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{375, 12375, 0.00023341463414634146, 0.00010404878048780487, cache.HierarchyStats{Accesses: 9322, L1Hits: 6241, L2Hits: 3081, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{375, 12375, 0.00023341463414634146, 0.00010516322701688555, cache.HierarchyStats{Accesses: 9389, L1Hits: 6275, L2Hits: 3114, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{375, 12375, 0.00023341463414634146, 0.00010519699812382739, cache.HierarchyStats{Accesses: 9389, L1Hits: 6274, L2Hits: 3115, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{375, 12239, 0.00023086303939962477, 0.00010296810506566604, cache.HierarchyStats{Accesses: 9226, L1Hits: 6177, L2Hits: 3049, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
	}},
	"hyb": {timeSec: 0.00040393808630394, mflops: 190.7520053506983, y: "9015922410a59c83cb5fa3bdcc2b1826421c92c03731fd6a14e12f48d060e8ca", cores: []corePin{
		{666, 6374, 0.00014457786116322703, 0.0002162701688555347, cache.HierarchyStats{Accesses: 11286, L1Hits: 4882, L2Hits: 6404, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{667, 6356, 0.00014427767354596624, 0.00021961350844277672, cache.HierarchyStats{Accesses: 11222, L1Hits: 4719, L2Hits: 6503, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{667, 6632, 0.00014945590994371483, 0.0002447599202626649, cache.HierarchyStats{Accesses: 11921, L1Hits: 4922, L2Hits: 6914, MemAccesses: 85, MemLineFills: 85, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{666, 6043, 0.00013836772983114447, 0.00021343339587242025, cache.HierarchyStats{Accesses: 10508, L1Hits: 4188, L2Hits: 6320, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{667, 6923, 0.0001549155722326454, 0.0002460225140712946, cache.HierarchyStats{Accesses: 12635, L1Hits: 5350, L2Hits: 7285, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
		{667, 6198, 0.00014131332082551595, 0.0002177560975609756, cache.HierarchyStats{Accesses: 10854, L1Hits: 4406, L2Hits: 6448, MemAccesses: 0, MemLineFills: 0, MemWriteBacks: 0, MemWriteThroughs: 0, Prefetches: 0}},
	}},
	"cacheblocked": {timeSec: 0.08277480142770673, mflops: 66.486272453417, y: "21e47e0a96bf1420f1dd47a21459c1ced6a8a12cefed436d2ce438232a2fc9ee", cores: []corePin{
		{16384, 687916, 0.015365628517823639, 0.06477639536159722, cache.HierarchyStats{Accesses: 970464, L1Hits: 69188, L2Hits: 553627, MemAccesses: 347649, MemLineFills: 347649, MemWriteBacks: 16384, MemWriteThroughs: 0, Prefetches: 0}},
		{16384, 687914, 0.015365553470919325, 0.06483595168430245, cache.HierarchyStats{Accesses: 970466, L1Hits: 68924, L2Hits: 553381, MemAccesses: 348161, MemLineFills: 348161, MemWriteBacks: 16384, MemWriteThroughs: 0, Prefetches: 0}},
		{16384, 687927, 0.015365797373358348, 0.0648427486683552, cache.HierarchyStats{Accesses: 970482, L1Hits: 68923, L2Hits: 553335, MemAccesses: 348224, MemLineFills: 348224, MemWriteBacks: 16384, MemWriteThroughs: 0, Prefetches: 0}},
		{16384, 687937, 0.015365984990619136, 0.06481240673589686, cache.HierarchyStats{Accesses: 970496, L1Hits: 68958, L2Hits: 553614, MemAccesses: 347924, MemLineFills: 347924, MemWriteBacks: 16384, MemWriteThroughs: 0, Prefetches: 0}},
	}},
}
