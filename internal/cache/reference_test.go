package cache

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// refCache is the straightforward cache the packed implementation must
// match access for access: parallel tag/valid/dirty slices, a first-fit
// scan for a free way, and a root-to-leaf walk of each set's PLRU tree on
// every touch and victim choice. It is kept only as the differential
// oracle for Cache.
type refCache struct {
	cfg       Config
	sets      int
	setShift  uint // log2(LineBytes)
	setMask   uint64
	tags      []uint64
	valid     []bool
	dirty     []bool
	plru      []uint32
	stamp     []uint64
	tick      uint64
	ways      int
	treeDepth int
	stats     Stats
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &refCache{
		cfg:       cfg,
		sets:      sets,
		setShift:  uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:   uint64(sets - 1),
		tags:      make([]uint64, sets*cfg.Ways),
		valid:     make([]bool, sets*cfg.Ways),
		dirty:     make([]bool, sets*cfg.Ways),
		plru:      make([]uint32, sets),
		stamp:     make([]uint64, sets*cfg.Ways),
		ways:      cfg.Ways,
		treeDepth: bits.TrailingZeros(uint(cfg.Ways)),
	}
	return c
}

func (c *refCache) tagOf(line uint64) uint64 {
	return line >> uint(bits.TrailingZeros(uint(c.sets)))
}

func (c *refCache) Access(addr uint64, write bool) Result {
	line := addr >> c.setShift
	set := int(line & c.setMask)
	tag := c.tagOf(line)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.stats.Hits++
			c.touch(set, w)
			var r Result
			r.Hit = true
			if write {
				if c.cfg.WriteBack {
					c.dirty[base+w] = true
				} else {
					c.stats.WriteThroughs++
					r.WroteThrough = true
				}
			}
			return r
		}
	}
	c.stats.Misses++
	victim := -1
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = w
			break
		}
	}
	var r Result
	if victim < 0 {
		victim = c.victim(set)
		c.stats.Evictions++
		if c.dirty[base+victim] {
			c.stats.WriteBacks++
			r.WroteBack = true
			r.VictimAddr = (c.tags[base+victim]<<uint(bits.TrailingZeros(uint(c.sets))) | uint64(set)) << c.setShift
		}
	}
	c.tags[base+victim] = tag
	c.valid[base+victim] = true
	c.dirty[base+victim] = write && c.cfg.WriteBack
	if write && !c.cfg.WriteBack {
		c.stats.WriteThroughs++
		r.WroteThrough = true
	}
	c.touch(set, victim)
	return r
}

func (c *refCache) Contains(addr uint64) bool {
	line := addr >> c.setShift
	set := int(line & c.setMask)
	tag := c.tagOf(line)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			return true
		}
	}
	return false
}

func (c *refCache) Flush() (writeBacks int) {
	for i := range c.valid {
		if c.valid[i] && c.dirty[i] {
			writeBacks++
		}
		c.valid[i] = false
		c.dirty[i] = false
	}
	for i := range c.plru {
		c.plru[i] = 0
	}
	return writeBacks
}

func (c *refCache) LinesValid() int {
	n := 0
	for _, v := range c.valid {
		if v {
			n++
		}
	}
	return n
}

func (c *refCache) Stats() Stats { return c.stats }

func (c *refCache) ResetStats() { c.stats = Stats{} }

func (c *refCache) victim(set int) int {
	if c.cfg.Replacement == TrueLRU {
		base := set * c.ways
		v, best := 0, c.stamp[base]
		for w := 1; w < c.ways; w++ {
			if c.stamp[base+w] < best {
				best, v = c.stamp[base+w], w
			}
		}
		return v
	}
	if c.ways == 1 {
		return 0
	}
	tree := c.plru[set]
	node, w := 0, 0
	for level := 0; level < c.treeDepth; level++ {
		bit := int((tree >> uint(node)) & 1)
		w = w<<1 | bit
		node = 2*node + 1 + bit
	}
	return w
}

// touch makes way w the most recently used of its set: a recency stamp
// under TrueLRU, or every PLRU node on the path to w pointed away from it
// (bit 1 sends the victim walk right, bit 0 left).
func (c *refCache) touch(set, w int) {
	if c.cfg.Replacement == TrueLRU {
		c.tick++
		c.stamp[set*c.ways+w] = c.tick
		return
	}
	tree := c.plru[set]
	node := 0
	for level := c.treeDepth - 1; level >= 0; level-- {
		bit := (w >> uint(level)) & 1
		if bit == 0 {
			tree |= 1 << uint(node)
		} else {
			tree &^= 1 << uint(node)
		}
		node = 2*node + 1 + bit
	}
	c.plru[set] = tree
}

// refHierarchy is Hierarchy's access logic over two refCaches.
type refHierarchy struct {
	l1, l2   *refCache
	prefetch bool
	events   HierarchyStats
}

func (h *refHierarchy) Access(addr uint64, write bool) Level {
	h.events.Accesses++
	r1 := h.l1.Access(addr, write)
	if r1.Hit {
		h.events.L1Hits++
		if r1.WroteThrough {
			h.storeBelow(addr)
		}
		return LevelL1
	}
	forwardStore := write && r1.WroteThrough
	if h.l2 == nil {
		h.events.MemAccesses++
		h.events.MemLineFills++
		if forwardStore {
			h.events.MemWriteThroughs++
		}
		h.prefetchAfter(addr)
		return LevelMemory
	}
	r2 := h.l2.Access(addr, forwardStore)
	if r2.WroteBack {
		h.events.MemWriteBacks++
	}
	if r2.Hit {
		h.events.L2Hits++
		return LevelL2
	}
	h.events.MemAccesses++
	h.events.MemLineFills++
	h.prefetchAfter(addr)
	return LevelMemory
}

func (h *refHierarchy) prefetchAfter(addr uint64) {
	if !h.prefetch {
		return
	}
	lb := uint64(h.l1.cfg.LineBytes)
	next := (addr + lb) &^ (lb - 1)
	target := h.l2
	if target == nil {
		target = h.l1
	}
	if target.Contains(next) {
		return
	}
	if target.Access(next, false).WroteBack {
		h.events.MemWriteBacks++
	}
	h.events.MemLineFills++
	h.events.Prefetches++
}

func (h *refHierarchy) storeBelow(addr uint64) {
	if h.l2 == nil {
		h.events.MemWriteThroughs++
		return
	}
	r2 := h.l2.Access(addr, true)
	if !r2.Hit {
		h.events.MemLineFills++
	}
	if r2.WroteBack {
		h.events.MemWriteBacks++
	}
}

func (h *refHierarchy) Flush() int {
	h.l1.Flush()
	if h.l2 == nil {
		return 0
	}
	wb := h.l2.Flush()
	h.events.MemWriteBacks += uint64(wb)
	return wb
}

func (h *refHierarchy) ResetStats() {
	h.events = HierarchyStats{}
	h.l1.ResetStats()
	if h.l2 != nil {
		h.l2.ResetStats()
	}
}

// diffStream yields a seeded mix of sequential runs, re-visits of recent
// addresses, random jumps over a footprint four times the cache's capacity,
// and rare far jumps with the top address bits set; one access in five is a
// store.
type diffStream struct {
	rng       *rand.Rand
	footprint uint64
	line      uint64
	next      uint64
	recent    [16]uint64
}

func newDiffStream(seed int64, cfg Config) *diffStream {
	return &diffStream{
		rng:       rand.New(rand.NewSource(seed)),
		footprint: uint64(4 * cfg.SizeBytes),
		line:      uint64(cfg.LineBytes),
	}
}

func (s *diffStream) addr() (uint64, bool) {
	switch k := s.rng.Intn(16); {
	case k < 4:
		s.next = uint64(s.rng.Int63n(int64(s.footprint)))
	case k == 4:
		s.next = uint64(s.rng.Int63())<<1 | uint64(s.rng.Intn(2))
	case k < 9:
		s.next = s.recent[s.rng.Intn(len(s.recent))]
	default:
		s.next += uint64(s.rng.Intn(3 * int(s.line)))
	}
	s.recent[s.rng.Intn(len(s.recent))] = s.next
	return s.next, s.rng.Intn(5) == 0
}

// TestDifferentialAgainstReference drives Cache and refCache with identical
// seeded streams, interleaved with Contains, Flush and ResetStats, and
// requires every Result, Stats, LinesValid and Flush count to agree.
func TestDifferentialAgainstReference(t *testing.T) {
	type geom struct {
		ways int
		pol  Replacement
	}
	var geoms []geom
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		geoms = append(geoms, geom{w, TreePLRU}, geom{w, TrueLRU})
	}
	geoms = append(geoms, geom{3, TrueLRU}, geom{6, TrueLRU})
	const lineBytes = 32
	seed := int64(0)
	for _, g := range geoms {
		for _, sets := range []int{1, 4, 128, 2048} {
			for _, wb := range []bool{false, true} {
				seed++
				cfg := Config{SizeBytes: lineBytes * g.ways * sets, LineBytes: lineBytes, Ways: g.ways, WriteBack: wb, Replacement: g.pol}
				name := fmt.Sprintf("%s-%dw-%ds-wb=%v", g.pol, g.ways, sets, wb)
				t.Run(name, func(t *testing.T) { diffCache(t, cfg, seed) })
			}
		}
	}
}

func diffCache(t *testing.T, cfg Config, seed int64) {
	got, want := New(cfg), newRefCache(cfg)
	s := newDiffStream(seed, cfg)
	// Enough accesses to fill every set several times over.
	ops := max(20000, 8*cfg.SizeBytes/cfg.LineBytes)
	for i := 0; i < ops; i++ {
		addr, write := s.addr()
		if g, w := got.Access(addr, write), want.Access(addr, write); g != w {
			t.Fatalf("op %d: Access(%#x, %v) = %+v, reference %+v", i, addr, write, g, w)
		}
		// About three flushes and three stats resets per run, so the
		// cache fills between them; a Contains probe every 100 accesses.
		switch k := s.rng.Intn(ops); {
		case k < 3:
			if g, w := got.Flush(), want.Flush(); g != w {
				t.Fatalf("op %d: Flush = %d, reference %d", i, g, w)
			}
		case k < 6:
			got.ResetStats()
			want.ResetStats()
		case k < 6+ops/100:
			probe, _ := s.addr()
			if g, w := got.Contains(probe), want.Contains(probe); g != w {
				t.Fatalf("op %d: Contains(%#x) = %v, reference %v", i, probe, g, w)
			}
		}
		if g, w := got.Stats(), want.Stats(); g != w {
			t.Fatalf("op %d: Stats = %+v, reference %+v", i, g, w)
		}
		if i%4096 == 0 {
			compareLinesValid(t, i, got, want)
		}
	}
	compareLinesValid(t, ops, got, want)
	if g, w := got.Flush(), want.Flush(); g != w {
		t.Fatalf("final Flush = %d, reference %d", g, w)
	}
}

func compareLinesValid(t *testing.T, op int, got *Cache, want *refCache) {
	t.Helper()
	if g, w := got.LinesValid(), want.LinesValid(); g != w {
		t.Fatalf("op %d: LinesValid = %d, reference %d", op, g, w)
	}
}

// TestHierarchyDifferentialAgainstReference compares Hierarchy with the
// same logic over refCaches, with the L2 on and off, the prefetcher on and
// off, both policies and 1-32 ways. Each configuration runs twice on the
// same seeded stream: access by access through Access, where every Level
// must agree, and in blocks of 1-64 accesses through AccessLines. After
// every access or block the HierarchyStats and both levels' Stats must
// agree, and at the end both levels' LinesValid.
func TestHierarchyDifferentialAgainstReference(t *testing.T) {
	type geom struct {
		ways, l1Sets int
		pol          Replacement
	}
	// In a one-set L1, a prefetch into the L1 lands in the set of the
	// line just accessed and displaces it from most recently used.
	geoms := []geom{{3, 16, TrueLRU}, {6, 16, TrueLRU}, {1, 1, TreePLRU}, {2, 1, TrueLRU}}
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		geoms = append(geoms, geom{w, 16, TreePLRU}, geom{w, 16, TrueLRU})
	}
	seed := int64(100)
	for _, g := range geoms {
		for _, withL2 := range []bool{true, false} {
			for _, prefetch := range []bool{false, true} {
				seed++
				l1 := Config{SizeBytes: 32 * g.ways * g.l1Sets, LineBytes: 32, Ways: g.ways, Replacement: g.pol}
				l2 := Config{SizeBytes: 32 * g.ways * 128, LineBytes: 32, Ways: g.ways, WriteBack: true, Replacement: g.pol}
				name := fmt.Sprintf("%s-%dw-%ds-l2=%v-prefetch=%v", g.pol, g.ways, g.l1Sets, withL2, prefetch)
				for _, blocks := range []bool{false, true} {
					t.Run(name+blockSuffix(blocks), func(t *testing.T) {
						got := NewHierarchy(New(l1), nil)
						want := &refHierarchy{l1: newRefCache(l1), prefetch: prefetch}
						if withL2 {
							got.L2, want.l2 = New(l2), newRefCache(l2)
						}
						got.NextLinePrefetch = prefetch
						// Enough accesses to fill the L2 a dozen times over.
						diffHierarchy(t, got, want, newDiffStream(seed, l2), blocks, 50000)
					})
				}
			}
		}
	}
	// The SCC hierarchy itself, on the stream and seeds the test used
	// before it covered other geometries.
	for i, withL2 := range []bool{true, false} {
		for j, prefetch := range []bool{false, true} {
			for _, blocks := range []bool{false, true} {
				t.Run(fmt.Sprintf("l2=%v-prefetch=%v", withL2, prefetch)+blockSuffix(blocks), func(t *testing.T) {
					got := NewSCCHierarchy(withL2)
					got.NextLinePrefetch = prefetch
					want := &refHierarchy{l1: newRefCache(SCCL1()), prefetch: prefetch}
					if withL2 {
						want.l2 = newRefCache(SCCL2())
					}
					diffHierarchy(t, got, want, newDiffStream(int64(101+2*i+j), SCCL2()), blocks, 200000)
				})
			}
		}
	}
}

// TestAccessLinesTopLineStore starts blocks with the entry 0xFFFFFFFF, a
// store to the highest line a block entry holds, and mixes it with loads of
// that line and of others. Every block must match the reference hierarchy
// run access by access, with the L2 and the prefetcher on and off.
func TestAccessLinesTopLineStore(t *testing.T) {
	const top = uint32(math.MaxUint32)
	blocks := [][]uint32{
		{top}, {top, top}, {top, top - 1, top}, {top, 6, top, top - 1},
		{top - 1, top, top}, {8, top}, {top, top - 1, top - 1, 8, top},
	}
	for _, withL2 := range []bool{true, false} {
		for _, prefetch := range []bool{false, true} {
			t.Run(fmt.Sprintf("l2=%v-prefetch=%v", withL2, prefetch), func(t *testing.T) {
				got := NewSCCHierarchy(withL2)
				got.NextLinePrefetch = prefetch
				want := &refHierarchy{l1: newRefCache(SCCL1()), prefetch: prefetch}
				if withL2 {
					want.l2 = newRefCache(SCCL2())
				}
				lineBytes := uint64(got.LineBytes())
				for i := 0; i < 3; i++ {
					for b, block := range blocks {
						got.AccessLines(block)
						for _, op := range block {
							want.Access(uint64(op>>1)*lineBytes, op&1 != 0)
						}
						if g, w := got.Stats(), want.events; g != w {
							t.Fatalf("round %d block %d: Stats = %+v, reference %+v", i, b, g, w)
						}
						if g, w := got.L1.Stats(), want.l1.Stats(); g != w {
							t.Fatalf("round %d block %d: L1 Stats = %+v, reference %+v", i, b, g, w)
						}
						if withL2 {
							if g, w := got.L2.Stats(), want.l2.Stats(); g != w {
								t.Fatalf("round %d block %d: L2 Stats = %+v, reference %+v", i, b, g, w)
							}
						}
					}
				}
			})
		}
	}
}

// blockSuffix names the AccessLines run of a configuration.
func blockSuffix(blocks bool) string {
	if blocks {
		return "-blocks"
	}
	return ""
}

// diffHierarchy drives got and want with ops accesses of s, through
// Access or, with blocks set, through AccessLines, with about three
// flushes and three stats resets between them.
func diffHierarchy(t *testing.T, got *Hierarchy, want *refHierarchy, s *diffStream, blocks bool, ops int) {
	t.Helper()
	lineBytes := uint64(got.LineBytes())
	var block []uint32
	for i := 0; i < ops; {
		if blocks {
			// A block entry holds a 31-bit line number, so its
			// address keeps 31 bits above the line offset.
			block = block[:0]
			for n := 1 + s.rng.Intn(64); n > 0 && i < ops; n-- {
				addr, write := s.addr()
				line := addr / lineBytes & (1<<31 - 1)
				want.Access(line*lineBytes, write)
				block = append(block, uint32(line)<<1|uint32(b2u(write)))
				i++
			}
			got.AccessLines(block)
		} else {
			addr, write := s.addr()
			if g, w := got.Access(addr, write), want.Access(addr, write); g != w {
				t.Fatalf("op %d: Access(%#x, %v) = %v, reference %v", i, addr, write, g, w)
			}
			i++
		}
		switch k := s.rng.Intn(ops); {
		case k < 3:
			if g, w := got.Flush(), want.Flush(); g != w {
				t.Fatalf("op %d: Flush = %d, reference %d", i, g, w)
			}
		case k < 6:
			got.ResetStats()
			want.ResetStats()
		}
		if g, w := got.Stats(), want.events; g != w {
			t.Fatalf("op %d: Stats = %+v, reference %+v", i, g, w)
		}
		if g, w := got.L1.Stats(), want.l1.Stats(); g != w {
			t.Fatalf("op %d: L1 Stats = %+v, reference %+v", i, g, w)
		}
		if want.l2 != nil {
			if g, w := got.L2.Stats(), want.l2.Stats(); g != w {
				t.Fatalf("op %d: L2 Stats = %+v, reference %+v", i, g, w)
			}
		}
	}
	compareLinesValid(t, ops, got.L1, want.l1)
	if want.l2 != nil {
		compareLinesValid(t, ops, got.L2, want.l2)
	}
}

// sccLikeStream is a seeded line stream shaped like the exact walk's CSR
// SpMV pass: the row pointer, index, value and y streams reach the cache
// only when they cross into a new line, while every x read does; x mixes
// near-diagonal and scattered columns over a vector larger than the L2.
func sccLikeStream(seed int64, n int) []uint64 {
	const (
		rows    = 1 << 16
		perRow  = 8
		ptrBase = uint64(1) << 28
		idxBase = ptrBase + 4*(rows+1)
		valBase = idxBase + 4*rows*perRow
		xBase   = valBase + 8*rows*perRow
		yBase   = xBase + 8*rows
	)
	lineBytes := uint64(SCCL1().LineBytes)
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint64, 0, n)
	// Bit 0 of an entry marks a store (addresses are 4-byte aligned).
	var last [4]uint64
	cross := func(s int, addr, store uint64) {
		if line := addr / lineBytes; line != last[s] {
			last[s] = line
			out = append(out, addr|store)
		}
	}
	for i := 0; len(out) < n; i = (i + 1) % rows {
		cross(0, ptrBase+4*uint64(i), 0)
		for k := 0; k < perRow; k++ {
			nz := uint64(i*perRow + k)
			cross(1, idxBase+4*nz, 0)
			cross(2, valBase+8*nz, 0)
			col := i + rng.Intn(64) - 32
			if rng.Intn(4) == 0 {
				col = rng.Intn(rows)
			}
			out = append(out, xBase+8*uint64((col+rows)%rows))
		}
		cross(3, yBase+8*uint64(i), 1)
	}
	return out[:n]
}

var benchLevel Level

func BenchmarkHierarchyAccess(b *testing.B) {
	s := sccLikeStream(1, 1<<20)
	h := NewSCCHierarchy(true)
	for _, v := range s {
		h.Access(v&^1, v&1 == 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := s[i&(len(s)-1)]
		benchLevel = h.Access(v&^1, v&1 == 1)
	}
}

// BenchmarkHierarchyAccessLines runs BenchmarkHierarchyAccess's stream, in
// the same order, through the block entry.
func BenchmarkHierarchyAccessLines(b *testing.B) {
	ops := lineOps(sccLikeStream(1, 1<<20), SCCL1().LineBytes)
	h := NewSCCHierarchy(true)
	h.AccessLines(ops)
	b.ResetTimer()
	for done := 0; done < b.N; {
		i := done & (len(ops) - 1)
		n := min(b.N-done, len(ops)-i)
		h.AccessLines(ops[i : i+n])
		done += n
	}
}

// lineOps converts a stream of addresses, bit 0 marking a store, into
// AccessLines entries.
func lineOps(s []uint64, lineBytes int) []uint32 {
	ops := make([]uint32, len(s))
	for i, v := range s {
		ops[i] = uint32(v/uint64(lineBytes))<<1 | uint32(v&1)
	}
	return ops
}

var benchResult Result

func BenchmarkCacheAccess(b *testing.B) {
	s := sccLikeStream(1, 1<<20)
	c := New(SCCL1())
	for _, v := range s {
		c.Access(v&^1, v&1 == 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := s[i&(len(s)-1)]
		benchResult = c.Access(v&^1, v&1 == 1)
	}
}
