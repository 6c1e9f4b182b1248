package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHierarchyLevels(t *testing.T) {
	h := NewSCCHierarchy(true)
	if lvl := h.Access(0, false); lvl != LevelMemory {
		t.Fatalf("cold access satisfied at %v", lvl)
	}
	if lvl := h.Access(0, false); lvl != LevelL1 {
		t.Fatalf("warm access satisfied at %v", lvl)
	}
	// Evict from L1 (16KB, 128 sets): access 5 conflicting lines with a
	// 4 KB stride, then return to the first. It should be an L2 hit.
	stride := uint64(16 << 10 / 4) // one L1 way span = sets*line = 4 KB
	for i := 1; i <= 5; i++ {
		h.Access(uint64(i)*stride*64, false)
	}
	// The original line 0 may or may not be evicted depending on set
	// mapping; force eviction by walking its exact set.
	h2 := NewSCCHierarchy(true)
	h2.Access(0, false)
	for i := 1; i <= 4; i++ {
		h2.Access(uint64(i)*4096, false) // same L1 set (4 KB apart), 4 ways
	}
	if lvl := h2.Access(0, false); lvl != LevelL2 {
		t.Fatalf("L1-evicted line satisfied at %v, want L2", lvl)
	}
}

func TestHierarchyWithoutL2(t *testing.T) {
	h := NewSCCHierarchy(false)
	if h.L2 != nil {
		t.Fatal("L2 present in disabled configuration")
	}
	if lvl := h.Access(0, false); lvl != LevelMemory {
		t.Fatalf("cold = %v", lvl)
	}
	if lvl := h.Access(0, false); lvl != LevelL1 {
		t.Fatalf("warm = %v", lvl)
	}
	// Evict from L1; next access must go to memory, not L2.
	for i := 1; i <= 4; i++ {
		h.Access(uint64(i)*4096, false)
	}
	if lvl := h.Access(0, false); lvl != LevelMemory {
		t.Fatalf("evicted = %v, want memory", lvl)
	}
}

func TestHierarchyStatsPartition(t *testing.T) {
	h := NewSCCHierarchy(true)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		h.Access(uint64(rng.Intn(1<<20)), rng.Intn(4) == 0)
	}
	s := h.Stats()
	if s.Accesses != 20000 {
		t.Fatalf("accesses = %d", s.Accesses)
	}
	if s.L1Hits+s.L2Hits+s.MemAccesses != s.Accesses {
		t.Fatalf("levels don't partition accesses: %+v", s)
	}
	if s.MemLineFills != s.MemAccesses && s.MemLineFills < s.MemAccesses {
		t.Fatalf("line fills %d < memory accesses %d", s.MemLineFills, s.MemAccesses)
	}
}

func TestHierarchyWriteThroughStoreReachesL2(t *testing.T) {
	h := NewSCCHierarchy(true)
	h.Access(0, true) // store miss: L2 filled and dirtied
	// The line is now in both levels; evicting it from L2 must write back.
	if !h.L2.Contains(0) {
		t.Fatal("store did not allocate in L2")
	}
	// Walk the L2 set of address 0: stride = sets*line = 64 KB.
	for i := 1; i <= 4; i++ {
		h.L2.Access(uint64(i)*65536, false)
	}
	if h.L2.Stats().WriteBacks != 1 {
		t.Fatalf("L2 write-backs = %d, want 1 (dirty line from write-through store)", h.L2.Stats().WriteBacks)
	}
}

func TestHierarchyMemWriteTraffic(t *testing.T) {
	h := NewSCCHierarchy(false) // no L2: write-through goes to memory
	h.Access(0, true)
	h.Access(0, true)
	s := h.Stats()
	if s.MemWriteThroughs != 2 {
		t.Fatalf("write-throughs to memory = %d, want 2", s.MemWriteThroughs)
	}
	if s.MemWriteBytes(32) != 16 { // 2 stores x 8 bytes
		t.Fatalf("write bytes = %d, want 16", s.MemWriteBytes(32))
	}
	if s.MemReadBytes(32) != 32 { // 1 line fill
		t.Fatalf("read bytes = %d, want 32", s.MemReadBytes(32))
	}
}

func TestHierarchyFlush(t *testing.T) {
	h := NewSCCHierarchy(true)
	h.Access(0, true)
	h.Access(64, true)
	wb := h.Flush()
	if wb != 2 {
		t.Fatalf("flush wrote back %d lines, want 2", wb)
	}
	if h.Stats().MemWriteBacks != 2 {
		t.Fatalf("flush write-backs not counted: %+v", h.Stats())
	}
	if lvl := h.Access(0, false); lvl != LevelMemory {
		t.Fatalf("post-flush access = %v, want memory", lvl)
	}
}

func TestHierarchyResetStats(t *testing.T) {
	h := NewSCCHierarchy(true)
	h.Access(0, false)
	h.ResetStats()
	if h.Stats() != (HierarchyStats{}) {
		t.Fatal("stats survive reset")
	}
	if lvl := h.Access(0, false); lvl != LevelL1 {
		t.Fatal("contents lost on reset")
	}
}

func TestHierarchyRequiresL1(t *testing.T) {
	wbL1 := SCCL1()
	wbL1.WriteBack = true
	cases := map[string]func(){
		"nil L1":        func() { NewHierarchy(nil, nil) },
		"write-back L1": func() { NewHierarchy(New(wbL1), New(SCCL2())) },
	}
	for name, build := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHierarchy with a %s did not panic", name)
				}
			}()
			build()
		}()
	}
}

func TestLevelString(t *testing.T) {
	cases := map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelMemory: "memory", Level(9): "invalid"}
	for l, want := range cases {
		if l.String() != want {
			t.Errorf("%d.String() = %q, want %q", l, l.String(), want)
		}
	}
}

// quickSeed seeds every property's random source, so a failure reproduces.
const quickSeed = 1

// quickConfig returns a quick.Config drawing its inputs from quickSeed.
func quickConfig(t *testing.T, maxCount int) *quick.Config {
	t.Helper()
	t.Logf("quick seed %d", quickSeed)
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(quickSeed))}
}

// Property: for any access sequence, level counts partition total accesses
// and valid lines never exceed capacity.
func TestQuickHierarchyInvariants(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		h := NewSCCHierarchy(true)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < int(n); i++ {
			h.Access(uint64(rng.Intn(1<<22)), rng.Intn(3) == 0)
		}
		s := h.Stats()
		if s.L1Hits+s.L2Hits+s.MemAccesses != s.Accesses {
			return false
		}
		l1Cap := h.L1.Config().SizeBytes / h.L1.Config().LineBytes
		l2Cap := h.L2.Config().SizeBytes / h.L2.Config().LineBytes
		return h.L1.LinesValid() <= l1Cap && h.L2.LinesValid() <= l2Cap
	}
	if err := quick.Check(f, quickConfig(t, 30)); err != nil {
		t.Fatal(err)
	}
}

// Property: repeating the exact same access twice in a row always hits L1
// the second time.
func TestQuickImmediateRehit(t *testing.T) {
	f := func(addr uint32, write bool) bool {
		h := NewSCCHierarchy(true)
		h.Access(uint64(addr), write)
		return h.Access(uint64(addr), false) == LevelL1
	}
	if err := quick.Check(f, quickConfig(t, 50)); err != nil {
		t.Fatal(err)
	}
}

func TestNextLinePrefetchTurnsStreamMissesIntoL2Hits(t *testing.T) {
	plain := NewSCCHierarchy(true)
	pf := NewSCCHierarchy(true)
	pf.NextLinePrefetch = true
	// A pure forward stream over 512 lines.
	for i := 0; i < 512; i++ {
		plain.Access(uint64(i*32), false)
		pf.Access(uint64(i*32), false)
	}
	sp, sf := plain.Stats(), pf.Stats()
	if sp.MemAccesses != 512 {
		t.Fatalf("plain stream demand misses = %d, want 512", sp.MemAccesses)
	}
	// With next-line prefetch roughly every other access is an L2 hit.
	if sf.L2Hits < 200 {
		t.Fatalf("prefetch stream L2 hits = %d, want ~256", sf.L2Hits)
	}
	if sf.Prefetches == 0 {
		t.Fatal("no prefetches recorded")
	}
	// Prefetch traffic is accounted: fills >= demand misses.
	if sf.MemLineFills < sf.MemAccesses {
		t.Fatalf("fills %d < demand misses %d", sf.MemLineFills, sf.MemAccesses)
	}
}

func TestPrefetchWithoutL2FillsL1(t *testing.T) {
	h := NewSCCHierarchy(false)
	h.NextLinePrefetch = true
	h.Access(0, false)
	if !h.L1.Contains(32) {
		t.Fatal("next line not prefetched into L1")
	}
}

func TestPrefetchSkipsResidentLines(t *testing.T) {
	h := NewSCCHierarchy(true)
	h.NextLinePrefetch = true
	h.Access(32, false) // line 1 resident in both levels
	h.Access(0, false)  // miss; next line (1) already present below
	before := h.Stats().Prefetches
	h.Access(4096*17, false) // unrelated miss; its next line absent
	if h.Stats().Prefetches != before+1 {
		t.Fatalf("prefetch count = %d, want %d", h.Stats().Prefetches, before+1)
	}
}
