// Package cache implements an address-accurate set-associative cache
// simulator modelled on the SCC's P54C cores: 16 KB L1 and 256 KB L2, 4-way
// set associative, 32-byte lines, tree pseudo-LRU replacement, write-back
// with write-allocate. The SCC offers no hardware coherence, so caches are
// strictly private and expose an explicit Flush, mirroring the software
// coherence model RCCE programs use.
package cache

import (
	"fmt"
	"math/bits"
	"slices"
)

// Replacement selects the victim-selection policy of a cache level.
type Replacement int

const (
	// TreePLRU is the SCC's tree pseudo-LRU policy (the default; the
	// zero value keeps existing configurations unchanged).
	TreePLRU Replacement = iota
	// TrueLRU evicts the genuinely least-recently-used way. It is not
	// what the P54C implements, but it is the policy under which a
	// stack-distance (reuse-distance) model predicts hits exactly, so it
	// serves as the oracle for the analytic pricing fast path
	// (internal/sim, internal/trace).
	TrueLRU
)

// String implements fmt.Stringer.
func (r Replacement) String() string {
	switch r {
	case TreePLRU:
		return "plru"
	case TrueLRU:
		return "lru"
	default:
		return "invalid"
	}
}

// Config describes one cache level.
type Config struct {
	// SizeBytes is the total capacity; must be Ways*LineBytes*Sets with
	// power-of-two sets and LineBytes*Sets at least 4.
	SizeBytes int
	// LineBytes is the line size (32 on the SCC's P54C cores).
	LineBytes int
	// Ways is the associativity (4 on the SCC; at most 32 under
	// TreePLRU).
	Ways int
	// WriteBack selects write-back (true, SCC L2) or write-through
	// (false, modelling the P54C L1's default behaviour).
	WriteBack bool
	// Replacement selects the victim policy: TreePLRU (the SCC default)
	// or TrueLRU (the stack-algorithm oracle for analytic pricing).
	Replacement Replacement
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineBytes)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %d not divisible by ways*line = %d", c.SizeBytes, c.LineBytes*c.Ways)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d not a power of two", sets)
	}
	if c.Replacement == TreePLRU && c.Ways&(c.Ways-1) != 0 {
		return fmt.Errorf("cache: associativity %d not a power of two (tree PLRU requires it)", c.Ways)
	}
	if c.Replacement == TreePLRU && c.Ways > maxPLRUWays {
		return fmt.Errorf("cache: tree PLRU associativity %d above %d (the tree word holds %d nodes)", c.Ways, maxPLRUWays, maxPLRUWays-1)
	}
	if c.LineBytes*sets < 1<<flagBits {
		return fmt.Errorf("cache: line size × sets = %d is below %d: the tag would lose address bits to the line word's flags", c.LineBytes*sets, 1<<flagBits)
	}
	if c.Replacement != TreePLRU && c.Replacement != TrueLRU {
		return fmt.Errorf("cache: unknown replacement policy %d", c.Replacement)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// SCCL1 returns the SCC per-core L1 data cache geometry: 16 KB, 4-way,
// 32 B lines, write-through.
func SCCL1() Config {
	return Config{SizeBytes: 16 << 10, LineBytes: 32, Ways: 4, WriteBack: false}
}

// SCCL2 returns the SCC per-core L2 geometry: 256 KB, 4-way, 32 B lines,
// write-back (the paper notes the L2 is write-back only).
func SCCL2() Config {
	return Config{SizeBytes: 256 << 10, LineBytes: 32, Ways: 4, WriteBack: true}
}

// Stats counts cache events.
type Stats struct {
	Hits, Misses uint64
	// Evictions counts replaced valid lines; WriteBacks counts how many
	// of those were dirty (write-back caches only).
	Evictions, WriteBacks uint64
	// WriteThroughs counts writes forwarded below by a write-through
	// cache (every write when WriteBack is false).
	WriteThroughs uint64
}

// MissRatio returns Misses / (Hits + Misses), or 0 with no accesses.
func (s Stats) MissRatio() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}

// A line word packs one cache line's state as tag<<flagBits | dirty<<1 |
// valid. An invalid line's word is 0, and a line is dirty only while valid.
const (
	lineValid = 1
	lineDirty = 2
	flagBits  = 2
)

// maxPLRUWays is the largest TreePLRU associativity: a set's tree of
// ways-1 nodes lives in one uint32.
const (
	maxPLRUDepth = 5
	maxPLRUWays  = 1 << maxPLRUDepth
)

// Cache is a single-level set-associative cache with tree pseudo-LRU.
// It is not safe for concurrent use; simulated cores own private instances.
type Cache struct {
	cfg       Config
	lineShift uint // log2(LineBytes)
	tagShift  uint // log2(LineBytes*sets): the address bits below the tag
	setMask   int
	ways      int
	// dirtyOnWrite is lineDirty in a write-back cache and 0 in a
	// write-through one, which forwards every store instead.
	dirtyOnWrite uint64
	lines        []uint64 // sets*ways line words, set-major
	plru         []uint32 // one tree per set (TreePLRU only)
	plruTouch    []uint64 // plruTouches for this associativity
	plruVictim   []uint8  // plruVictims for this associativity, or nil
	plruRelative []uint8  // plruRelatives for this associativity, or nil
	stamp        []uint64 // per-line recency stamps (TrueLRU only)
	tick         uint64   // monotonic access clock (TrueLRU only)
	stats        Stats
}

// New builds a cache from cfg; it panics on an invalid configuration
// (construction happens at simulator setup where a panic is a programming
// error, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	lineShift := uint(bits.TrailingZeros(uint(cfg.LineBytes)))
	c := &Cache{
		cfg:       cfg,
		lineShift: lineShift,
		tagShift:  lineShift + uint(bits.TrailingZeros(uint(sets))),
		setMask:   sets - 1,
		ways:      cfg.Ways,
		lines:     make([]uint64, sets*cfg.Ways),
	}
	if cfg.WriteBack {
		c.dirtyOnWrite = lineDirty
	}
	if cfg.Replacement == TrueLRU {
		c.stamp = make([]uint64, sets*cfg.Ways)
	} else {
		depth := bits.TrailingZeros(uint(cfg.Ways))
		c.plru = make([]uint32, sets)
		c.plruTouch = plruTouches[depth]
		c.plruVictim = plruVictims[depth]
		c.plruRelative = plruRelatives[depth]
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the accumulated event counts.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Result reports what a single access did.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// WroteBack is true when the access evicted a dirty line (the line
	// must be written to the next level / memory).
	WroteBack bool
	// VictimAddr is the base address of the evicted dirty line, valid
	// only when WroteBack is true.
	VictimAddr uint64
	// WroteThrough is true when a write-through cache forwarded the
	// write below.
	WroteThrough bool
}

// Access simulates one load (write=false) or store (write=true) of the byte
// at addr. A miss allocates the line (write-allocate policy for both reads
// and writes).
func (c *Cache) Access(addr uint64, write bool) Result {
	set, ln, key := locate[anyWays](c, addr)
	r := Result{WroteThrough: c.writeThrough(write)}
	if hit := probe[anyWays](ln, key); hit != 0 {
		w := bits.TrailingZeros64(hit)
		c.hit(ln, w, write)
		c.touch(set, w)
		r.Hit = true
		return r
	}
	w, ok := c.victim(set, ln)
	if !ok {
		w = c.victimSlow(set)
	}
	old := c.fill(ln, w, key, write)
	c.touch(set, w)
	dirty := old >> 1 & lineValid
	r.WroteBack = dirty != 0
	r.VictimAddr = (old>>flagBits<<(c.tagShift&63) | uint64(set)<<(c.lineShift&63)) & -dirty // 0 unless dirty
	return r
}

// The steps below are one access's transition at one level: locate the
// set, probe it, then hit, or pick a victim and fill, and touch the way
// used. Access and the hierarchy's access loop (accessLines) both run
// these steps, and each is small enough for the compiler to inline into
// them: a call in the loop would spill its live registers on every access.

// wayCount fixes a cache's associativity at compile time: [4]struct{} is
// the SCC's 4 ways, and anyWays reads it from the cache at run time. Each
// array length is its own GC shape, so the 4-way instantiation is compiled
// on its own with len(W) a constant: its set slices have a constant
// length, and probe's scan is unrolled.
type wayCount interface {
	anyWays | [4]struct{}
}

// anyWays is the wayCount of a run-time associativity.
type anyWays = [0]struct{}

// locate returns the set addr maps to, that set's line words, and the word
// a valid line holding addr has apart from its dirty flag. Both shifts are
// below 64; masking them says so to the compiler, which otherwise guards
// each against an over-wide shift.
func locate[W wayCount](c *Cache, addr uint64) (set int, ln []uint64, key uint64) {
	var fixed W
	ways := c.ways
	if len(fixed) > 0 {
		ways = len(fixed)
	}
	set = int(addr>>(c.lineShift&63)) & c.setMask
	base := set * ways
	return set, c.lines[base : base+ways : base+ways], addr>>(c.tagShift&63)<<flagBits | lineValid
}

// probe returns the hit mask of one set: bit w is set when way w's word
// holds key (a tag with the valid flag set). A set holds a line at most
// once, so at most one bit is set, and the scan does not branch on the
// words. A fixed 4-way set is scanned unrolled. The body sits at the
// compiler's inlining budget: the block loop relies on it inlining.
func probe[W wayCount](ln []uint64, key uint64) (hit uint64) {
	var fixed W
	if len(fixed) == 4 {
		if ln[0]&^lineDirty == key {
			hit = 1
		}
		if ln[1]&^lineDirty == key {
			hit = 2
		}
		if ln[2]&^lineDirty == key {
			hit = 4
		}
		if ln[3]&^lineDirty == key {
			hit = 8
		}
	} else {
		for w, v := range ln {
			hit |= b2u(v&^lineDirty == key) << w
		}
	}
	return hit
}

// writeThrough counts a store that a write-through cache forwards below,
// and reports whether it did.
func (c *Cache) writeThrough(write bool) bool {
	forwarded := write && c.dirtyOnWrite == 0
	if forwarded {
		c.stats.WriteThroughs++
	}
	return forwarded
}

// hit is the transition when way w of a set holds the line: a store dirties
// a write-back line. The access then touches w.
func (c *Cache) hit(ln []uint64, w int, write bool) {
	c.stats.Hits++
	if write {
		ln[w] |= c.dirtyOnWrite
	}
}

// victim returns the way a miss in a full tree-PLRU set fills, looked up
// by tree value. ok=false sends every other miss to victimSlow. Fills take
// the lowest free way and only Flush invalidates, so a set's valid ways
// are a prefix: the set is full when its last way is valid.
func (c *Cache) victim(set int, ln []uint64) (w int, ok bool) {
	if t := c.plruVictim; t != nil && ln[len(ln)-1] != 0 {
		return int(t[c.plru[set]]), true
	}
	return 0, false
}

// fill is the transition on a miss that victim sent to way w: the line
// takes the way, and the access then touches w. It returns the evicted
// line's word, 0 when the way was free; its dirty flag says whether the
// eviction wrote back.
func (c *Cache) fill(ln []uint64, w int, key uint64, write bool) (old uint64) {
	c.stats.Misses++
	old = ln[w]
	c.stats.Evictions += old & lineValid
	c.stats.WriteBacks += old >> 1 & lineValid
	ln[w] = key | c.dirtyOnWrite&-b2u(write)
	return old
}

// prefetch fills the line at addr as a load unless it is resident. It
// reports whether it filled, and the evicted word as fill does.
func prefetch[W wayCount](c *Cache, addr uint64) (filled bool, old uint64) {
	set, ln, key := locate[W](c, addr)
	if probe[W](ln, key) != 0 {
		return false, 0
	}
	w, ok := c.victim(set, ln)
	if !ok {
		w = c.victimSlow(set)
	}
	old = c.fill(ln, w, key, false)
	c.touch(set, w)
	return true, old
}

// b2u converts a bool to 0 or 1; the compiler lowers it to a flag set, not a
// branch.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Contains reports whether the line holding addr is present (no side
// effects; does not update PLRU or stats).
func (c *Cache) Contains(addr uint64) bool {
	_, ln, key := locate[anyWays](c, addr)
	return probe[anyWays](ln, key) != 0
}

// Flush writes back every dirty line and invalidates the whole cache,
// returning the number of dirty lines written back. This is the software
// coherence operation SCC programs issue around communication phases.
func (c *Cache) Flush() (writeBacks int) {
	for _, v := range c.lines {
		writeBacks += int(v >> 1 & lineValid)
	}
	clear(c.lines)
	clear(c.plru)
	return writeBacks
}

// A set's packed state is one uint32 per way. A set that is not full is
// packed in way order, with its tree in the free last way (tree<<1, so the
// valid flag reads clear). A full tree-PLRU set is packed in tree-relative
// order: way w goes to w XOR the tree bits on w's path (plruPath), so the
// victim's word comes first and the most recently used way's last. Two full
// sets pack alike exactly when they hold the same words and one is the
// other under a tree automorphism, a swap of the subtrees below some nodes.
// Victim selection and touch commute with those automorphisms, and a full
// set stays full, so two such sets answer every later access alike. Two
// sets that are not full pack alike only when they are identical: they
// fill their free ways by way order, not by the tree. Packing keeps a line
// word whole only below 2^32.

// packSet writes set's packed state into out, which holds c.ways words.
// The cache must be tree-PLRU of at most maxVictimTableWays ways.
func (c *Cache) packSet(set int, out []uint32) {
	ln := c.lines[set*c.ways : (set+1)*c.ways]
	tree := c.plru[set]
	if ln[len(ln)-1] == 0 {
		for w, v := range ln {
			out[w] = uint32(v)
		}
		out[len(out)-1] = tree << 1
		return
	}
	rel := c.plruRelative[int(tree)*len(ln):]
	for w, v := range ln {
		out[rel[w]] = uint32(v)
	}
}

// appendState appends the packed state of every set, in set order.
func (c *Cache) appendState(dst []uint32) []uint32 {
	n := len(dst)
	dst = slices.Grow(dst, len(c.lines))[:n+len(c.lines)]
	for set := 0; set <= c.setMask; set++ {
		c.packSet(set, dst[n+set*c.ways:n+(set+1)*c.ways])
	}
	return dst
}

// matchState reports whether every set packs as in state, an appendState
// of a cache of this geometry.
func (c *Cache) matchState(state []uint32) bool {
	var buf [maxPLRUWays]uint32
	got := buf[:c.ways]
	for set := 0; set <= c.setMask; set++ {
		c.packSet(set, got)
		if !slices.Equal(got, state[set*c.ways:(set+1)*c.ways]) {
			return false
		}
	}
	return true
}

// plruPath returns the tree bits on the path from the root to way w, the
// root's the highest.
func plruPath(tree uint32, w, ways int) int {
	path, node := 0, 0
	for half := ways >> 1; half > 0; half >>= 1 {
		path = path<<1 | int(tree>>uint(node)&1)
		node = 2*node + 1 + int(b2u(w&half != 0))
	}
	return path
}

// LinesValid returns the number of currently valid lines (test/debug aid).
func (c *Cache) LinesValid() int {
	n := 0
	for _, v := range c.lines {
		n += int(v & lineValid)
	}
	return n
}

// victimSlow returns the way a miss fills when victim cannot: the lowest
// free way of a set that has one, the way with the oldest recency stamp
// under TrueLRU, and a root-to-leaf walk of the tree for tree-PLRU above
// maxVictimTableWays.
func (c *Cache) victimSlow(set int) int {
	ln := c.lines[set*c.ways : (set+1)*c.ways]
	if ln[len(ln)-1] == 0 {
		w := 0
		for ln[w] != 0 {
			w++
		}
		return w
	}
	if c.stamp == nil {
		return plruWalk(c.plru[set], c.ways)
	}
	st := c.stamp[set*c.ways : (set+1)*c.ways]
	v, best := 0, st[0]
	for w, s := range st {
		if s < best {
			best, v = s, w
		}
	}
	return v
}

// touch makes way w the most recently used of its set: a recency stamp
// under TrueLRU, or every PLRU node on the path to w pointed away from it.
func (c *Cache) touch(set, w int) {
	if c.stamp != nil {
		c.tick++
		c.stamp[set*c.ways+w] = c.tick
		return
	}
	m := c.plruTouch[w]
	c.plru[set] = c.plru[set]&^uint32(m>>32) | uint32(m)
}

// The tree-PLRU tree of a set is a heap of ways-1 nodes in a uint32: the
// root is bit 0, the children of node i are bits 2i+1 and 2i+2, and a
// node's bit is 1 when the victim lies in its right subtree.
//
// plruTouches[log2(ways)][w] packs the nodes on the path from the root to
// way w (high half) over those of them a touch of w sets (low half), so
// that a touch points every node on the path away from w. plruVictims
// [log2(ways)] maps each tree value to the way plruWalk reaches, for
// associativities up to maxVictimTableWays, and plruRelatives[log2(ways)]
// maps tree<<log2(ways) | w to way w's tree-relative index (plruPath) for
// the same associativities. Every cache of one associativity shares them.
var plruTouches, plruVictims, plruRelatives = newPLRUTables()

// maxVictimTableWays bounds a victim table at 128 entries (a 7-node tree).
const maxVictimTableWays = 8

func newPLRUTables() (touches [maxPLRUDepth + 1][]uint64, victims, relatives [maxPLRUDepth + 1][]uint8) {
	for depth := range touches {
		ways := 1 << depth
		touches[depth] = make([]uint64, ways)
		for w := range touches[depth] {
			node := 0
			for level := depth - 1; level >= 0; level-- {
				bit := w >> uint(level) & 1
				touches[depth][w] |= 1<<uint(32+node) | uint64(1-bit)<<uint(node)
				node = 2*node + 1 + bit
			}
		}
		if ways <= maxVictimTableWays {
			victims[depth] = make([]uint8, 1<<(ways-1))
			relatives[depth] = make([]uint8, 0, ways<<(ways-1))
			for tree := range victims[depth] {
				victims[depth][tree] = uint8(plruWalk(uint32(tree), ways))
				for w := 0; w < ways; w++ {
					relatives[depth] = append(relatives[depth], uint8(w^plruPath(uint32(tree), w, ways)))
				}
			}
		}
	}
	return touches, victims, relatives
}

// plruWalk follows a tree's bits from the root down to a leaf way.
func plruWalk(tree uint32, ways int) int {
	node, w := 0, 0
	for n := 1; n < ways; n <<= 1 {
		bit := int(tree >> uint(node) & 1)
		w = w<<1 | bit
		node = 2*node + 1 + bit
	}
	return w
}
