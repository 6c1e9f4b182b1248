package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// lapHierarchy builds a hierarchy with an L1 of l1 and, with withL2, an L2
// of l2.
func lapHierarchy(l1, l2 Config, withL2, prefetch bool) *Hierarchy {
	h := NewHierarchy(New(l1), nil)
	if withL2 {
		h.L2 = New(l2)
	}
	h.NextLinePrefetch = prefetch
	return h
}

// compareHierarchies fails unless got and want agree on HierarchyStats,
// both levels' Stats and LinesValid.
func compareHierarchies(t *testing.T, when string, got, want *Hierarchy) {
	t.Helper()
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("%s: Stats = %+v, two plain laps %+v", when, g, w)
	}
	if g, w := got.L1.Stats(), want.L1.Stats(); g != w {
		t.Fatalf("%s: L1 Stats = %+v, two plain laps %+v", when, g, w)
	}
	if g, w := got.L1.LinesValid(), want.L1.LinesValid(); g != w {
		t.Fatalf("%s: L1 LinesValid = %d, two plain laps %d", when, g, w)
	}
	if want.L2 != nil {
		if g, w := got.L2.Stats(), want.L2.Stats(); g != w {
			t.Fatalf("%s: L2 Stats = %+v, two plain laps %+v", when, g, w)
		}
		if g, w := got.L2.LinesValid(), want.L2.LinesValid(); g != w {
			t.Fatalf("%s: L2 LinesValid = %d, two plain laps %d", when, g, w)
		}
	}
}

// checkLaps runs ops as a captured warm-up lap and a timed lap on one
// hierarchy and as two plain laps on another, after prewarm on both, with
// the counters reset between the laps. Both must agree after each lap and
// after a further plain lap, which checks that the timed lap left the
// hierarchy in an equivalent state. It returns where the timed lap's L1
// matched, or -1.
func checkLaps(t *testing.T, newH func() *Hierarchy, prewarm, ops []uint32) (matched int) {
	t.Helper()
	got, want := newH(), newH()
	got.AccessLines(prewarm)
	want.AccessLines(prewarm)
	got.WarmUpLines(ops)
	want.AccessLines(ops)
	compareHierarchies(t, "warm-up lap", got, want)
	got.ResetStats()
	want.ResetStats()
	matched = got.timedLines(ops)
	want.AccessLines(ops)
	compareHierarchies(t, fmt.Sprintf("timed lap (matched at %d)", matched), got, want)
	got.AccessLines(ops)
	want.AccessLines(ops)
	compareHierarchies(t, "lap after the timed lap", got, want)
	return matched
}

// lapStream returns n record entries over lines [0, lines): random lines,
// runs of consecutive lines and repeats, about one in eight a store.
func lapStream(seed int64, n, lines int) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]uint32, n)
	line := 0
	for i := range ops {
		switch k := rng.Intn(8); {
		case k < 3:
			line = rng.Intn(lines)
		case k < 6:
			line = (line + 1) % lines
		}
		ops[i] = uint32(line)<<1 | uint32(b2u(rng.Intn(8) == 0))
	}
	return ops
}

// TestTimedLinesMatchesPlainLaps compares the captured warm-up and timed
// laps with two plain laps over seeded records of every length around the
// checkpoint spacing, on the SCC hierarchy with the L2 on and off, on
// other tree-PLRU associativities, and on the hierarchies that capture
// nothing (a TrueLRU, one-set or 16-way L1, the prefetcher on). The SCC runs must
// match at a checkpoint past the first.
func TestTimedLinesMatchesPlainLaps(t *testing.T) {
	plru := func(ways, sets int, wb bool) Config {
		return Config{SizeBytes: 32 * ways * sets, LineBytes: 32, Ways: ways, WriteBack: wb}
	}
	type geom struct {
		name          string
		l1, l2        Config
		lines         int
		prefetch, scc bool
	}
	geoms := []geom{
		{"scc", SCCL1(), SCCL2(), 3000, false, true},
		{"plru-2w", plru(2, 16, false), plru(2, 256, true), 300, false, false},
		{"plru-8w", plru(8, 8, false), plru(8, 32, true), 300, false, false},
		{"plru-16w", plru(16, 4, false), plru(4, 64, true), 300, false, false},
		{"lru-l1", Config{SizeBytes: 32 * 4 * 16, LineBytes: 32, Ways: 4, Replacement: TrueLRU}, plru(4, 64, true), 300, false, false},
		{"one-set-l1", plru(4, 1, false), plru(4, 64, true), 300, false, false},
		{"scc-prefetch", SCCL1(), SCCL2(), 3000, true, false},
	}
	lengths := []int{0, 1, 100, checkpointEntries - 1, checkpointEntries, checkpointEntries + 1, 5*checkpointEntries + 17}
	seed := int64(500)
	for _, g := range geoms {
		for _, withL2 := range []bool{true, false} {
			late := 0
			for _, n := range lengths {
				seed++
				t.Run(fmt.Sprintf("%s-l2=%v-n=%d", g.name, withL2, n), func(t *testing.T) {
					newH := func() *Hierarchy { return lapHierarchy(g.l1, g.l2, withL2, g.prefetch) }
					matched := checkLaps(t, newH, nil, lapStream(seed, n, g.lines))
					if n == 0 && matched != -1 {
						t.Errorf("empty record matched at %d", matched)
					}
					if matched > 0 {
						late++
					}
				})
			}
			if g.scc && late == 0 {
				t.Errorf("%s l2=%v: no timed lap matched past its first checkpoint", g.name, withL2)
			}
		}
	}
}

// TestTimedLinesFirstCheckpoint starts the laps from a hierarchy that a
// lap over the same record already warmed. The record's lines fit their
// sets, so every lap ends in the state it started in and the timed lap's
// L1 matches at entry 0, before it runs at all.
func TestTimedLinesFirstCheckpoint(t *testing.T) {
	sets := SCCL1().Sets()
	var ops []uint32
	for i := 0; i < 3*checkpointEntries; i++ {
		line := uint32(i % (4 * sets))
		ops = append(ops, line<<1|uint32(b2u(i%7 == 0)))
	}
	for _, withL2 := range []bool{true, false} {
		t.Run(fmt.Sprintf("l2=%v", withL2), func(t *testing.T) {
			newH := func() *Hierarchy { return lapHierarchy(SCCL1(), SCCL2(), withL2, false) }
			if matched := checkLaps(t, newH, ops, ops); matched != 0 {
				t.Errorf("timed lap matched at %d, want 0", matched)
			}
		})
	}
}

// TestTimedLinesNeedsItsWarmUp runs TimedLines after an access that came
// between it and its warm-up, and on a record other than the warm-up's:
// each must run as a plain lap.
func TestTimedLinesNeedsItsWarmUp(t *testing.T) {
	ops := lapStream(9, 3*checkpointEntries, 3000)
	other := append([]uint32(nil), ops...)
	for _, between := range []func(h *Hierarchy){
		func(h *Hierarchy) { h.Access(64, false) },
		func(h *Hierarchy) { h.AccessLines(ops[:1]) },
		func(h *Hierarchy) { h.Flush() },
	} {
		got, want := NewSCCHierarchy(true), NewSCCHierarchy(true)
		got.WarmUpLines(ops)
		want.AccessLines(ops)
		between(got)
		between(want)
		if matched := got.timedLines(ops); matched != -1 {
			t.Errorf("timed lap after an intervening access matched at %d", matched)
		}
		want.AccessLines(ops)
		compareHierarchies(t, "timed lap after an intervening access", got, want)
	}
	h := NewSCCHierarchy(true)
	h.WarmUpLines(ops)
	if matched := h.timedLines(other); matched != -1 {
		t.Errorf("timed lap over another record matched at %d", matched)
	}
}

// treeImage returns a cache of c's geometry whose every set holds c's
// words in the ways the tree value tree puts them at c's tree-relative
// indexes: c's set under one of the tree's automorphisms.
func treeImage(c *Cache, tree uint32) *Cache {
	img := New(c.cfg)
	for set := 0; set <= c.setMask; set++ {
		for w := 0; w < c.ways; w++ {
			rel := w ^ plruPath(c.plru[set], w, c.ways)
			for v := 0; v < c.ways; v++ {
				if v^plruPath(tree, v, c.ways) == rel {
					img.lines[set*c.ways+v] = c.lines[set*c.ways+w]
				}
			}
		}
		img.plru[set] = tree
	}
	return img
}

// cloneCache returns a copy of c's contents and counters.
func cloneCache(c *Cache) *Cache {
	d := New(c.cfg)
	copy(d.lines, c.lines)
	copy(d.plru, c.plru)
	d.stats = c.stats
	return d
}

// TestPackedStateUnderTreeAutomorphisms takes full 4-way write-back sets
// and their images under each of the 8 tree automorphisms: each image must
// match the original's packed state and answer a seeded stream with the
// same Results and Stats. A different line, a different dirty bit, or a
// set that is not full under another tree must not match.
func TestPackedStateUnderTreeAutomorphisms(t *testing.T) {
	cfg := Config{SizeBytes: 32 * 4 * 4, LineBytes: 32, Ways: 4, WriteBack: true}
	rng := rand.New(rand.NewSource(77))
	base := New(cfg)
	for base.LinesValid() < len(base.lines) {
		base.Access(uint64(rng.Intn(64))*32, rng.Intn(3) == 0)
	}
	state := base.appendState(nil)
	for tree := uint32(0); tree < 8; tree++ {
		img := treeImage(base, tree)
		if !img.matchState(state) {
			t.Fatalf("tree %03b: image does not match", tree)
		}
		a, b := cloneCache(base), img
		b.stats = a.stats
		s := rand.New(rand.NewSource(int64(tree)))
		for i := 0; i < 20000; i++ {
			addr, write := uint64(s.Intn(128))*32, s.Intn(4) == 0
			if ra, rb := a.Access(addr, write), b.Access(addr, write); ra != rb {
				t.Fatalf("tree %03b access %d: Result %+v, image %+v", tree, i, ra, rb)
			}
			if a.Stats() != b.Stats() {
				t.Fatalf("tree %03b access %d: Stats %+v, image %+v", tree, i, a.Stats(), b.Stats())
			}
		}
	}

	mutate := func(name string, change func(c *Cache)) {
		img := treeImage(base, 5)
		change(img)
		if img.matchState(state) {
			t.Errorf("%s: matched", name)
		}
	}
	mutate("different line", func(c *Cache) { c.lines[6] += 1 << (c.tagShift - c.lineShift + flagBits) })
	mutate("different dirty bit", func(c *Cache) { c.lines[9] ^= lineDirty })
	mutate("set not full", func(c *Cache) { c.lines[3] = 0 })

	// Two sets that are not full match only when identical, tree and all.
	part := New(cfg)
	part.Access(0, false)
	part.Access(4*32, true)
	partState := part.appendState(nil)
	same := cloneCache(part)
	if !same.matchState(partState) {
		t.Errorf("identical set not full: does not match")
	}
	same.plru[0] ^= 1
	if same.matchState(partState) {
		t.Errorf("set not full under another tree: matched")
	}
}

// FuzzReplayTimedLap builds a record by cycling through the fuzzed bytes
// (line<<1 | store), drifting the lines each cycle, and runs it through
// the captured warm-up and timed laps and through two plain laps, on a
// 4-way L1 and L2 (the fixed-way loop) or a 2-way L1 and 8-way L2 (the
// run-time one), with the L2 on or off, from a cold or a warmed start.
// Both must agree on HierarchyStats and on both levels' Stats.
func FuzzReplayTimedLap(f *testing.F) {
	f.Add([]byte{0, 2, 4, 9, 16, 33, 64, 2, 130}, uint16(3*checkpointEntries), true, false, false)
	f.Add([]byte{1, 2, 3}, uint16(checkpointEntries+5), false, true, true)
	f.Add([]byte{200}, uint16(10), true, true, false)
	f.Fuzz(func(t *testing.T, pattern []byte, n uint16, withL2, anyWays, prewarm bool) {
		if len(pattern) == 0 {
			return
		}
		ops := make([]uint32, int(n)%(4*checkpointEntries))
		for i := range ops {
			b := uint32(pattern[i%len(pattern)])
			ops[i] = b ^ uint32(i/len(pattern)%5)<<2
		}
		l1 := Config{SizeBytes: 32 * 4 * 4, LineBytes: 32, Ways: 4}
		l2 := Config{SizeBytes: 32 * 4 * 16, LineBytes: 32, Ways: 4, WriteBack: true}
		if anyWays {
			l1 = Config{SizeBytes: 32 * 2 * 8, LineBytes: 32, Ways: 2}
			l2 = Config{SizeBytes: 32 * 8 * 8, LineBytes: 32, Ways: 8, WriteBack: true}
		}
		var warm []uint32
		if prewarm {
			warm = ops
		}
		checkLaps(t, func() *Hierarchy { return lapHierarchy(l1, l2, withL2, false) }, warm, ops)
	})
}

// reachedEntry is one record entry sent below the L1: its index, and
// whether it went as a forwarded store hit rather than as an L1 miss.
type reachedEntry struct {
	i         int
	forwarded bool
}

// reachedSeeds are FuzzTimedLapReached's seed inputs: records whose timed
// lap matches the warm-up's L1 at the first checkpoint, mid-record, and
// never (TestTimedLapReachedSeeds).
var reachedSeeds = []struct {
	pattern, start []byte
	n              uint16
	again, withL2  bool
	matched        string
}{
	{[]byte{0, 2, 5, 6}, nil, uint16(3 * checkpointEntries), true, false, "first"},
	{[]byte{0, 2, 4, 9, 16, 33, 64, 2, 130}, []byte{7, 9}, uint16(3 * checkpointEntries), false, true, "mid"},
	{[]byte{1, 2, 3, 200}, []byte{5}, 100, false, false, "never"},
}

// runReachedLaps builds a record from pattern like FuzzReplayTimedLap and
// an L1 start state from the record start (op = byte), plus the record
// itself when again is set, on a 4-set, 4-way L1 with or without an L2.
// It runs a captured warm-up and timed lap and returns what Reached lists
// after each, where the timed lap matched, and the same lists from a plain
// L1 that runs every access of the two laps through Access.
func runReachedLaps(pattern, start []byte, n uint16, again, withL2 bool) (got, want [2][]reachedEntry, matched int) {
	ops := make([]uint32, int(n)%(4*checkpointEntries))
	for i := range ops {
		ops[i] = uint32(pattern[i%len(pattern)]) ^ uint32(i/len(pattern)%5)<<2
	}
	pre := make([]uint32, len(start))
	for i, b := range start {
		pre[i] = uint32(b)
	}
	if again {
		pre = append(pre, ops...)
	}
	l1 := Config{SizeBytes: 32 * 4 * 4, LineBytes: 32, Ways: 4}
	l2 := Config{SizeBytes: 32 * 4 * 16, LineBytes: 32, Ways: 4, WriteBack: true}
	h, ref := lapHierarchy(l1, l2, withL2, false), New(l1)
	h.AccessLines(pre)
	for _, op := range pre {
		ref.Access(uint64(op>>1)*32, op&1 != 0)
	}
	for lap := range got {
		if lap == 0 {
			h.WarmUpLines(ops)
		} else {
			matched = h.timedLines(ops)
		}
		h.Reached(ops, func(i int, forwarded bool) {
			got[lap] = append(got[lap], reachedEntry{i, forwarded})
		})
		for i, op := range ops {
			if r := ref.Access(uint64(op>>1)*32, op&1 != 0); !r.Hit || r.WroteThrough {
				want[lap] = append(want[lap], reachedEntry{i, r.Hit})
			}
		}
	}
	return got, want, matched
}

// FuzzTimedLapReached checks Reached against a plain per-access L1 run:
// after WarmUpLines and after the TimedLines that follows it, the entries
// it lists, and their forwarded flags, must be those the plain run of that
// lap sends below its L1, from a fuzzed record and L1 start state.
func FuzzTimedLapReached(f *testing.F) {
	for _, s := range reachedSeeds {
		f.Add(s.pattern, s.start, s.n, s.again, s.withL2)
	}
	f.Fuzz(func(t *testing.T, pattern, start []byte, n uint16, again, withL2 bool) {
		if len(pattern) == 0 {
			return
		}
		got, want, matched := runReachedLaps(pattern, start, n, again, withL2)
		for lap, name := range []string{"warm-up", "timed"} {
			if !slices.Equal(got[lap], want[lap]) {
				t.Fatalf("%s lap (timed lap matched at %d): Reached lists %d entries, a plain L1 sends %d below\ngot  %v\nwant %v",
					name, matched, len(got[lap]), len(want[lap]), got[lap], want[lap])
			}
		}
	})
}

// TestTimedLapReachedSeeds holds FuzzTimedLapReached's seeds to the cases
// they are named for: the timed lap's L1 matches at entry 0, at a later
// checkpoint, and at none.
func TestTimedLapReachedSeeds(t *testing.T) {
	for _, s := range reachedSeeds {
		_, _, matched := runReachedLaps(s.pattern, s.start, s.n, s.again, s.withL2)
		var ok bool
		switch s.matched {
		case "first":
			ok = matched == 0
		case "mid":
			ok = matched > 0
		case "never":
			ok = matched == -1
		}
		if !ok {
			t.Errorf("seed %v: timed lap matched at %d, want %s", s.pattern, matched, s.matched)
		}
	}
}
