package cache

import (
	"testing"
)

func TestConfigValidate(t *testing.T) {
	good := []Config{
		SCCL1(), SCCL2(),
		{SizeBytes: 1024, LineBytes: 64, Ways: 2},
		{SizeBytes: 64, LineBytes: 64, Ways: 1},
		{SizeBytes: 32 * 32, LineBytes: 32, Ways: 32},
		{SizeBytes: 64 * 32, LineBytes: 32, Ways: 64, Replacement: TrueLRU},
		{SizeBytes: 4, LineBytes: 1, Ways: 1},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v", c, err)
		}
	}
	bad := []Config{
		{},
		{SizeBytes: 100, LineBytes: 32, Ways: 4}, // not divisible
		{SizeBytes: 1024, LineBytes: 48, Ways: 4}, // line not pow2
		{SizeBytes: 96 * 3, LineBytes: 32, Ways: 3},
		{SizeBytes: -1, LineBytes: 32, Ways: 4},
		{SizeBytes: 1536, LineBytes: 32, Ways: 4},     // 12 sets, not pow2
		{SizeBytes: 64 * 32, LineBytes: 32, Ways: 64}, // PLRU tree word holds 31 nodes
		{SizeBytes: 2, LineBytes: 2, Ways: 1},         // no room for the line word's flags
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted bad config", c)
		}
	}
}

func TestSCCGeometries(t *testing.T) {
	l1 := SCCL1()
	if l1.SizeBytes != 16<<10 || l1.Ways != 4 || l1.LineBytes != 32 || l1.WriteBack {
		t.Fatalf("SCCL1 = %+v", l1)
	}
	if l1.Sets() != 128 {
		t.Fatalf("SCCL1 sets = %d, want 128", l1.Sets())
	}
	l2 := SCCL2()
	if l2.SizeBytes != 256<<10 || !l2.WriteBack {
		t.Fatalf("SCCL2 = %+v", l2)
	}
	if l2.Sets() != 2048 {
		t.Fatalf("SCCL2 sets = %d, want 2048", l2.Sets())
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(bad) did not panic")
		}
	}()
	New(Config{SizeBytes: 100, LineBytes: 32, Ways: 4})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 2})
	if r := c.Access(0x40, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(0x40, false); !r.Hit {
		t.Fatal("second access missed")
	}
	if r := c.Access(0x41, false); !r.Hit {
		t.Fatal("same-line access missed")
	}
	if r := c.Access(0x40+32, false); r.Hit {
		t.Fatal("next line hit without being loaded")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 2 misses", s)
	}
}

func TestCapacityEviction(t *testing.T) {
	// 4 sets x 2 ways x 32B = 256 bytes. Walk 3 lines mapping to set 0.
	c := New(Config{SizeBytes: 256, LineBytes: 32, Ways: 2})
	sets := c.cfg.Sets() // 4
	stride := uint64(32 * sets)
	c.Access(0, false)
	c.Access(stride, false)
	c.Access(2*stride, false) // evicts one of the first two
	if c.LinesValid() != 2 {
		t.Fatalf("set holds %d lines, want 2", c.LinesValid())
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", c.Stats().Evictions)
	}
}

func TestPLRUDivergesFromTrueLRU(t *testing.T) {
	// The canonical tree-PLRU sequence: touch A,B,C,D then A,B,C and
	// insert E. True LRU would evict D; tree PLRU evicts A, because
	// touching C flips the root toward the A/B half whose node still
	// points at A. This pins down that we model the SCC's pseudo-LRU,
	// not exact LRU.
	c := New(Config{SizeBytes: 4 * 32, LineBytes: 32, Ways: 4}) // one set
	addr := func(i int) uint64 { return uint64(i) * 32 }
	for i := 0; i < 4; i++ {
		c.Access(addr(i), false)
	}
	for i := 0; i < 3; i++ {
		c.Access(addr(i), false)
	}
	c.Access(addr(4), false) // insert E
	if c.Contains(addr(0)) {
		t.Fatal("tree PLRU should have evicted A")
	}
	for _, i := range []int{1, 2, 3, 4} {
		if !c.Contains(addr(i)) {
			t.Fatalf("line %d unexpectedly evicted", i)
		}
	}
}

func TestPLRUEvictsUntouchedPairUnderAlternation(t *testing.T) {
	// Where PLRU does agree with LRU: alternate between A and B only;
	// a new insertion must land in the C/D half every time.
	c := New(Config{SizeBytes: 4 * 32, LineBytes: 32, Ways: 4})
	addr := func(i int) uint64 { return uint64(i) * 32 }
	for i := 0; i < 4; i++ {
		c.Access(addr(i), false)
	}
	for k := 0; k < 6; k++ {
		c.Access(addr(k%2), false)
	}
	c.Access(addr(10), false)
	if !c.Contains(addr(0)) || !c.Contains(addr(1)) {
		t.Fatal("hot pair A/B was evicted despite constant reuse")
	}
}

func TestPLRUNeverEvictsMostRecentlyUsed(t *testing.T) {
	c := New(Config{SizeBytes: 4 * 32, LineBytes: 32, Ways: 4})
	addr := func(i int) uint64 { return uint64(i) * 32 }
	for i := 0; i < 4; i++ {
		c.Access(addr(i), false)
	}
	// Repeatedly insert new lines; the immediately preceding insertion
	// must survive each time (tree PLRU guarantees the MRU is safe).
	for i := 4; i < 40; i++ {
		c.Access(addr(i), false)
		if !c.Contains(addr(i)) {
			t.Fatalf("line %d missing right after insertion", i)
		}
		if i > 4 && !c.Contains(addr(i-1)) {
			t.Fatalf("MRU line %d evicted by insertion of %d", i-1, i)
		}
	}
}

func TestWriteBackDirtyEviction(t *testing.T) {
	c := New(Config{SizeBytes: 2 * 32, LineBytes: 32, Ways: 2, WriteBack: true}) // 1 set, 2 ways
	c.Access(0, true)                                                            // dirty A
	c.Access(32, false)                                                          // clean B
	r := c.Access(64, false)                                                     // evicts A or B
	// Insert another to guarantee the dirty line eventually leaves.
	r2 := c.Access(96, false)
	if !r.WroteBack && !r2.WroteBack {
		t.Fatal("dirty line evicted without write-back")
	}
	wb := c.Stats().WriteBacks
	if wb != 1 {
		t.Fatalf("write-backs = %d, want 1", wb)
	}
	// The reported victim address must be line A's base (0) exactly once.
	if r.WroteBack && r.VictimAddr != 0 {
		t.Fatalf("victim addr = %#x, want 0", r.VictimAddr)
	}
	if r2.WroteBack && r2.VictimAddr != 0 {
		t.Fatalf("victim addr = %#x, want 0", r2.VictimAddr)
	}
}

func TestWriteThroughForwardsEveryStore(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 4, WriteBack: false})
	c.Access(0, true)
	c.Access(0, true)
	c.Access(0, false)
	s := c.Stats()
	if s.WriteThroughs != 2 {
		t.Fatalf("write-throughs = %d, want 2", s.WriteThroughs)
	}
	if s.WriteBacks != 0 {
		t.Fatalf("write-through cache produced write-backs: %+v", s)
	}
}

func TestVictimAddrReconstruction(t *testing.T) {
	// Direct-mapped-ish: 1 way, several sets; dirty lines evicted by
	// conflicting lines must report the original address.
	c := New(Config{SizeBytes: 4 * 32, LineBytes: 32, Ways: 1, WriteBack: true})
	base := uint64(0x1000) // set 0 with 4 sets
	c.Access(base, true)
	r := c.Access(base+4*32, true) // same set, different tag
	if !r.WroteBack {
		t.Fatal("conflicting store did not evict dirty line")
	}
	if r.VictimAddr != base {
		t.Fatalf("victim addr = %#x, want %#x", r.VictimAddr, base)
	}
}

func TestFlushWritesBackAndInvalidates(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 4, WriteBack: true})
	c.Access(0, true)
	c.Access(64, true)
	c.Access(128, false)
	if got := c.Flush(); got != 2 {
		t.Fatalf("Flush wrote back %d lines, want 2", got)
	}
	if c.LinesValid() != 0 {
		t.Fatal("lines survive a flush")
	}
	if r := c.Access(0, false); r.Hit {
		t.Fatal("hit after flush")
	}
	if got := c.Flush(); got != 0 {
		t.Fatalf("second flush wrote back %d lines", got)
	}
}

func TestContainsHasNoSideEffects(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 4})
	c.Access(0, false)
	before := c.Stats()
	if !c.Contains(0) || c.Contains(4096) {
		t.Fatal("Contains wrong")
	}
	if c.Stats() != before {
		t.Fatal("Contains changed stats")
	}
}

func TestMissRatio(t *testing.T) {
	var s Stats
	if s.MissRatio() != 0 {
		t.Fatal("empty stats miss ratio != 0")
	}
	s = Stats{Hits: 3, Misses: 1}
	if s.MissRatio() != 0.25 {
		t.Fatalf("miss ratio = %v, want 0.25", s.MissRatio())
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := New(Config{SizeBytes: 1024, LineBytes: 32, Ways: 4})
	c.Access(0, false)
	c.ResetStats()
	if c.Stats() != (Stats{}) {
		t.Fatal("stats survive reset")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("contents lost on stats reset")
	}
}

func TestSingleWayCache(t *testing.T) {
	c := New(Config{SizeBytes: 64, LineBytes: 32, Ways: 1})
	c.Access(0, false)
	c.Access(64, false) // same set (2 sets): set = line&1; line0 set0, line2 set0
	if c.Contains(0) {
		t.Fatal("direct-mapped conflict did not evict")
	}
	if !c.Contains(64) {
		t.Fatal("new line absent")
	}
}

// TestSequentialWorkingSetFits verifies a working set equal to capacity
// stays resident under repeated sequential sweeps (no pathological PLRU
// thrashing for a power-of-two-aligned stream).
func TestSequentialWorkingSetFits(t *testing.T) {
	cfg := Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4}
	c := New(cfg)
	lines := cfg.SizeBytes / cfg.LineBytes
	for i := 0; i < lines; i++ {
		c.Access(uint64(i*32), false)
	}
	c.ResetStats()
	for sweep := 0; sweep < 3; sweep++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*32), false)
		}
	}
	if mr := c.Stats().MissRatio(); mr != 0 {
		t.Fatalf("resident sweep miss ratio = %v, want 0", mr)
	}
}

// TestOverCapacityStreamsMiss verifies a working set twice the capacity
// misses heavily under LRU-style replacement (the capacity-miss regime the
// paper's Figure 6 analysis hinges on).
func TestOverCapacityStreamsMiss(t *testing.T) {
	cfg := Config{SizeBytes: 8 << 10, LineBytes: 32, Ways: 4}
	c := New(cfg)
	lines := 2 * cfg.SizeBytes / cfg.LineBytes
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*32), false)
		}
	}
	// Second sweep of a 2x working set under (P)LRU must still miss a lot.
	if mr := c.Stats().MissRatio(); mr < 0.9 {
		t.Fatalf("over-capacity miss ratio = %v, want >= 0.9", mr)
	}
}

// TestTrueLRUEvictsLeastRecent pins the TrueLRU policy: in a 4-way set,
// touching A B C D then re-touching A and missing on E must evict B (the
// genuinely least-recently-used line), which tree PLRU does not guarantee.
func TestTrueLRUEvictsLeastRecent(t *testing.T) {
	cfg := Config{SizeBytes: 128, LineBytes: 32, Ways: 4, Replacement: TrueLRU}
	c := New(cfg) // a single set
	addr := func(i int) uint64 { return uint64(i) * uint64(cfg.SizeBytes) }
	for i := 0; i < 4; i++ {
		c.Access(addr(i), false) // A B C D
	}
	c.Access(addr(0), false) // A again: B is now LRU
	c.Access(addr(4), false) // E evicts B
	for i, want := range []bool{true, false, true, true, true} {
		if got := c.Contains(addr(i)); got != want {
			t.Fatalf("after eviction, Contains(%d) = %v, want %v", i, got, want)
		}
	}
}

// TestTrueLRUStackProperty verifies the LRU inclusion property the analytic
// pricing model rests on: an access whose per-set stack distance is d hits
// exactly when d < ways.
func TestTrueLRUStackProperty(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		cfg := Config{SizeBytes: 32 * ways, LineBytes: 32, Ways: ways, Replacement: TrueLRU}
		c := New(cfg) // one set of `ways` lines
		// Touch lines 0..ways (ways+1 distinct), then re-access line 0:
		// its stack distance is `ways`, so it must miss; line 1 at
		// distance ways-1 ... after the re-fill of 0 evicted 1? Walk
		// carefully: after 0..ways, line 0 has distance ways -> miss.
		for i := 0; i <= ways; i++ {
			c.Access(uint64(i)*32, false)
		}
		c.ResetStats()
		c.Access(0, false)
		if h := c.Stats().Hits; h != 0 {
			t.Fatalf("ways=%d: distance-%d access hit", ways, ways)
		}
		// Immediately repeated access: distance 0 < ways, must hit.
		c.Access(0, false)
		if m := c.Stats().Misses; m != 1 {
			t.Fatalf("ways=%d: distance-0 access missed", ways)
		}
	}
}

// TestLRUAllowsNonPowerOfTwoWays: tree PLRU needs power-of-two ways, true
// LRU does not.
func TestLRUAllowsNonPowerOfTwoWays(t *testing.T) {
	cfg := Config{SizeBytes: 3 * 32, LineBytes: 32, Ways: 3, Replacement: TrueLRU}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("3-way LRU rejected: %v", err)
	}
	cfg.Replacement = TreePLRU
	if err := cfg.Validate(); err == nil {
		t.Fatal("3-way tree PLRU accepted")
	}
	cfg.Replacement = Replacement(7)
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown replacement policy accepted")
	}
}

// TestReplacementString covers the policy names.
func TestReplacementString(t *testing.T) {
	if TreePLRU.String() != "plru" || TrueLRU.String() != "lru" || Replacement(9).String() != "invalid" {
		t.Fatal("replacement names")
	}
}

// TestPLRUWidestTreeEvictsEveryLine fills one set at the largest accepted
// tree-PLRU associativity and streams a hundred times as many newer lines
// through it: every original line must be evicted. A tree with nodes beyond
// its word would pin the lines behind the lost nodes forever.
func TestPLRUWidestTreeEvictsEveryLine(t *testing.T) {
	for _, ways := range []int{16, maxPLRUWays} {
		const lineBytes = 32
		c := New(Config{SizeBytes: lineBytes * ways, LineBytes: lineBytes, Ways: ways})
		for i := 0; i < ways; i++ {
			c.Access(uint64(i*lineBytes), false)
		}
		for i := ways; i < 101*ways; i++ {
			c.Access(uint64(i*lineBytes), false)
		}
		for i := 0; i < ways; i++ {
			if c.Contains(uint64(i * lineBytes)) {
				t.Errorf("ways=%d: original line %d survived %d newer lines", ways, i, 100*ways)
			}
		}
	}
}
