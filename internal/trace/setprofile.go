package trace

import "fmt"

// This file implements the "trace-once, price-many" profile: a write-aware
// LRU stack-distance analysis of a cache-line access stream carried out at
// several set counts simultaneously. Because LRU is a stack algorithm, a
// set-associative LRU cache with 2^s sets holds, in every set, exactly the
// MaxWays most recently used lines of that set; an access whose per-set
// stack distance is d hits every cache with 2^s sets and more than d ways.
// One pass over the stream therefore yields exact hit, miss and write-back
// counts for EVERY geometry (sets = 2^s within the configured range, ways
// <= MaxWays) - the Hill & Smith all-associativity method extended with
// per-way write-back accounting.
//
// Write-backs use a per-entry clean-below threshold tau: a line is dirty in
// the W-way cache iff W > tau. A store makes the line dirty everywhere
// (tau = 0); a read at stack distance d refetches the line cleanly into
// every cache that missed (tau = max(tau, d)); and an entry shifting from
// stack position W-1 to W is, at that moment, the line the W-way cache
// evicts, so it contributes a write-back to the W-way geometry iff tau < W.
//
// The write-back bookkeeping is deferred for speed: tau is constant between
// two touches of an entry, so the dirty crossings of its whole descent - a
// contiguous associativity span (max(tau, base), d] - are settled in O(1)
// against a per-level difference array when the entry is next touched,
// evicted, or snapshotted, instead of per position during every shift. The
// base field excludes descent that happened while recording was off.

// AccessKind classifies one access of the profiled (L1-to-L2) stream. The
// distinction mirrors internal/cache.Hierarchy accounting: demand accesses
// are L1 misses (their L2 misses become demand memory accesses), forwarded
// stores are write-through L1 store hits passed below (their L2 misses add
// a write-allocate line fill but no demand memory access).
type AccessKind int

const (
	// DemandRead is an L1 read miss probing the L2.
	DemandRead AccessKind = iota
	// DemandStore is an L1 store miss forwarded to the L2 as a store
	// (write-through L1: the miss carries the dirty data down).
	DemandStore
	// ForwardedStore is a write-through L1 store hit forwarded below.
	ForwardedStore
)

// SetConfig bounds the geometries a SetAnalyzer can price: set counts
// 2^MinSetsLog2 .. 2^MaxSetsLog2 and associativities 1..MaxWays.
type SetConfig struct {
	MinSetsLog2, MaxSetsLog2 int
	MaxWays                  int
}

// Validate checks the bounds. MaxSetsLog2 is capped at 20 because every
// level allocates a dense array of per-set stacks, and MaxWays at 15
// because an entry keeps tau, which reaches MaxWays, in 4 bits.
func (c SetConfig) Validate() error {
	if c.MinSetsLog2 < 0 || c.MaxSetsLog2 < c.MinSetsLog2 || c.MaxSetsLog2 > 20 {
		return fmt.Errorf("trace: bad set range [%d, %d]", c.MinSetsLog2, c.MaxSetsLog2)
	}
	if c.MaxWays < 1 || c.MaxWays > entryFieldMask {
		return fmt.Errorf("trace: MaxWays %d outside 1..%d", c.MaxWays, entryFieldMask)
	}
	return nil
}

// Covers reports whether a (sets = 2^setsLog2, ways) geometry is priceable.
func (c SetConfig) Covers(setsLog2, ways int) bool {
	return setsLog2 >= c.MinSetsLog2 && setsLog2 <= c.MaxSetsLog2 &&
		ways >= 1 && ways <= c.MaxWays
}

// MaxLine is the largest cache-line number an analyzer of this
// configuration accepts: 2^(23+MinSetsLog2)-1, so that the coarsest
// level's tag fits its entry.
func (c SetConfig) MaxLine() uint64 { return 1<<(entryTagBits+c.MinSetsLog2) - 1 }

// Each resident line is one uint32 entry. From the top: the line's tag at
// its level (the line number above the level's set bits, 23 bits), a
// valid bit, then tau (the clean-below threshold: the line is dirty in a
// W-way cache iff W > tau) and base (the floor of the entry's accountable
// descent: dirty crossings at associativities <= base happened while
// recording was off, or were already settled, and must not be charged;
// it is the entry's stack position at the most recent recording flip, 0
// otherwise), 4 bits each. A zero entry is a free slot. A whole 8-way set
// fits in half a 64-byte host cache line, which matters because the
// profile build is bound by the scattered per-level state it touches per
// access, not by arithmetic.
const (
	entryFieldMask = 1<<4 - 1
	entryTauShift  = 4
	entryValid     = 1 << 8
	entryTagShift  = 9
	entryTagBits   = 32 - entryTagShift
	entryFields    = entryValid - 1 // tau and base
)

func entryTau(e uint32) int32  { return int32(e >> entryTauShift & entryFieldMask) }
func entryBase(e uint32) int32 { return int32(e & entryFieldMask) }

// setLevel tracks one set count: per-set LRU stacks truncated at ways
// entries plus the per-distance histograms and deferred write-back spans.
// The stacks live in one flat array: set s occupies the ways-sized chunk
// at s*ways, most recently used first and zero-terminated when not full.
// A touch at distance d shifts the d entries above it down one slot, and
// a miss shifts the whole chunk, dropping the LRU entry off its end.
type setLevel struct {
	mask  uint64
	shift uint // the level's set bits: an entry's tag is line >> shift
	ways  int
	ents  []uint32
	// used lists every set that holds an entry, in first-use order, so
	// that Reset, SetRecording and Profile visit only the occupied sets.
	used []uint32
	// demandHist[d] / fwdHist[d] count accesses at per-set stack distance
	// exactly d for d < ways; index ways pools distances >= ways and cold
	// accesses (a miss at every priceable associativity).
	demandHist []uint64
	fwdHist    []uint64
	// wbDiff accumulates dirty-crossing spans as a difference array over
	// associativity: a descent span (a, b] adds +1 at a+1 and -1 at b+1;
	// writeBacks[W] is the prefix sum 1..W, materialised by Profile.
	wbDiff []int64
}

// stack returns line's set chunk and the entry a line resident there has
// apart from tau and base.
func (l *setLevel) stack(line uint64) (st []uint32, key uint32) {
	b := int(line&l.mask) * l.ways
	return l.ents[b : b+l.ways : b+l.ways], uint32(line>>l.shift)<<entryTagShift | entryValid
}

// settle charges an entry's pending dirty crossings - the associativity
// span (max(tau, base), pos] - against a difference array.
func settle(diff []int64, e uint32, pos int32) {
	a := entryTau(e)
	if b := entryBase(e); b > a {
		a = b
	}
	if a < pos {
		diff[a+1]++
		diff[pos+1]--
	}
}

// touch records one access at this level and returns the per-set stack
// distance (ways meaning "missed everywhere"). from is a proven lower
// bound on the distance (a finer level's result; 0 when unknown), letting
// the scan skip positions the entry cannot occupy. Stack state always
// advances; histograms and write-back spans accumulate only while
// recording (the timed pass), matching the warm-up/ResetStats split of
// the exact simulator.
func (l *setLevel) touch(line uint64, store, recording bool, from int) int {
	st, key := l.stack(line)
	// Distance-0 fast path: an MRU re-touch moves nothing and has no
	// pending descent span to settle ((max(tau, base), 0] is empty).
	if from == 0 && st[0]&^entryFields == key {
		if store {
			st[0] &^= entryFieldMask << entryTauShift
		}
		return 0
	}
	for j := max(from, 1); j < len(st) && st[j] != 0; j++ {
		e := st[j]
		if e&^entryFields != key {
			continue
		}
		if recording {
			// The hit settles this entry's own descent; the entries above
			// it merely slide down one position each, which their own next
			// settle covers.
			settle(l.wbDiff, e, int32(j))
		}
		tau := entryTau(e)
		if store {
			tau = 0
		} else if int32(j) > tau {
			tau = int32(j)
		}
		copy(st[1:j+1], st[:j])
		st[0] = key | uint32(tau)<<entryTauShift
		return j
	}
	l.insertMiss(line, store, recording)
	return l.ways
}

// insertMiss records an access known to miss the truncated stack (either
// touch scanned and failed, or a finer level already missed): the chunk
// shifts down one slot and the line takes its head.
func (l *setLevel) insertMiss(line uint64, store, recording bool) {
	st, key := l.stack(line)
	tau := uint32(l.ways)
	if store {
		tau = 0
	}
	if last := st[len(st)-1]; last != 0 && recording {
		// The LRU entry drops off: it has by now crossed every boundary up
		// to the ways-way eviction.
		settle(l.wbDiff, last, int32(l.ways))
	}
	if st[0] == 0 {
		l.used = append(l.used, uint32(line&l.mask))
	}
	copy(st[1:], st)
	st[0] = key | tau<<entryTauShift
}

// eachEntry calls fn with the address and stack position of every
// resident entry.
func (l *setLevel) eachEntry(fn func(e *uint32, pos int32)) {
	for _, set := range l.used {
		st := l.ents[int(set)*l.ways : (int(set)+1)*l.ways]
		for j := 0; j < len(st) && st[j] != 0; j++ {
			fn(&st[j], int32(j))
		}
	}
}

// SetAnalyzer runs the multi-geometry analysis online over a cache-line
// stream. It is not safe for concurrent use; each simulated UE owns one
// at a time, and Reset readies it for the next.
type SetAnalyzer struct {
	cfg       SetConfig
	maxLine   uint64
	levels    []setLevel
	recording bool
}

// NewSetAnalyzer builds an analyzer for the given geometry bounds; it
// panics on an invalid configuration (analyzers are constructed at
// simulator setup, where that is a programming error).
func NewSetAnalyzer(cfg SetConfig) *SetAnalyzer {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &SetAnalyzer{cfg: cfg, maxLine: cfg.MaxLine(), recording: true}
	for s := cfg.MinSetsLog2; s <= cfg.MaxSetsLog2; s++ {
		sets := 1 << uint(s)
		a.levels = append(a.levels, setLevel{
			mask:       uint64(sets) - 1,
			shift:      uint(s),
			ways:       cfg.MaxWays,
			ents:       make([]uint32, sets*cfg.MaxWays),
			demandHist: make([]uint64, cfg.MaxWays+1),
			fwdHist:    make([]uint64, cfg.MaxWays+1),
			wbDiff:     make([]int64, cfg.MaxWays+2),
		})
	}
	return a
}

// Reset empties the analyzer, leaving it equal to a new one of its
// configuration while keeping its buffers. It clears only the sets that
// were used.
func (a *SetAnalyzer) Reset() {
	for i := range a.levels {
		l := &a.levels[i]
		for _, set := range l.used {
			clear(l.ents[int(set)*l.ways : (int(set)+1)*l.ways])
		}
		l.used = l.used[:0]
		clear(l.demandHist)
		clear(l.fwdHist)
		clear(l.wbDiff)
	}
	a.recording = true
}

// SetRecording gates histogram and write-back accumulation: stack state
// always advances so a warm-up pass (recording off) leaves the analyzer
// warmed exactly like the exact simulator's untimed pass leaves its caches.
// A flip re-bases every resident entry: turning recording on discards the
// unrecorded part of each descent; turning it off settles the recorded part
// before further unrecorded movement can blur it.
func (a *SetAnalyzer) SetRecording(on bool) {
	if on == a.recording {
		return
	}
	for i := range a.levels {
		l := &a.levels[i]
		l.eachEntry(func(e *uint32, pos int32) {
			if !on {
				settle(l.wbDiff, *e, pos)
			}
			*e = *e&^entryFieldMask | uint32(pos)
		})
	}
	a.recording = on
}

// Touch records one access to a cache-line number (not a byte address).
// It panics on a line above the configuration's MaxLine.
//
// Levels are walked finest (most sets) to coarsest: per-set stack
// distance is non-increasing in the set count (a finer set's residents
// are a subsequence of its coarser superset's), so each level's distance
// lower-bounds the next coarser one. The bound skips scan prefixes, and
// once any level misses its truncated stack the access has distance >=
// MaxWays everywhere coarser and takes the no-scan miss insert. On an
// L1-filtered stream - cold fills and far reuse - that is the dominant
// case.
func (a *SetAnalyzer) Touch(line uint64, kind AccessKind) {
	if line > a.maxLine {
		panic(fmt.Sprintf("trace: line %#x exceeds MaxLine %#x", line, a.maxLine))
	}
	store := kind != DemandRead
	bound := 0
	for i := len(a.levels) - 1; i >= 0; i-- {
		l := &a.levels[i]
		if bound == a.cfg.MaxWays {
			l.insertMiss(line, store, a.recording)
			a.record(i, a.cfg.MaxWays, kind)
			continue
		}
		d := l.touch(line, store, a.recording, bound)
		a.record(i, d, kind)
		bound = d
	}
}

func (a *SetAnalyzer) record(level, d int, kind AccessKind) {
	if !a.recording {
		return
	}
	if kind == ForwardedStore {
		a.levels[level].fwdHist[d]++
	} else {
		a.levels[level].demandHist[d]++
	}
}

// SetLevelProfile is the recorded outcome at one set count.
type SetLevelProfile struct {
	SetsLog2 int
	// DemandHist and FwdHist index per-set stack distance; the last slot
	// pools distances >= MaxWays and cold accesses. WriteBacks indexes
	// associativity W (slot 0 unused).
	DemandHist, FwdHist []uint64
	WriteBacks          []uint64
}

// SetProfile is an immutable snapshot of a SetAnalyzer: everything needed
// to price any covered geometry in O(ways).
type SetProfile struct {
	Config SetConfig
	Levels []SetLevelProfile
}

// Profile snapshots the recorded histograms (the analyzer may keep going).
// Deferred write-back spans of still-resident entries are flushed into the
// snapshot without disturbing the live difference array.
func (a *SetAnalyzer) Profile() SetProfile {
	p := SetProfile{Config: a.cfg}
	for i := range a.levels {
		l := &a.levels[i]
		diff := append([]int64(nil), l.wbDiff...)
		if a.recording {
			l.eachEntry(func(e *uint32, pos int32) { settle(diff, *e, pos) })
		}
		wb := make([]uint64, a.cfg.MaxWays+1)
		var run int64
		for w := 1; w <= a.cfg.MaxWays; w++ {
			run += diff[w]
			wb[w] = uint64(run)
		}
		p.Levels = append(p.Levels, SetLevelProfile{
			SetsLog2:   a.cfg.MinSetsLog2 + i,
			DemandHist: append([]uint64(nil), l.demandHist...),
			FwdHist:    append([]uint64(nil), l.fwdHist...),
			WriteBacks: wb,
		})
	}
	return p
}

// SetPrice is the exact outcome of one LRU geometry over the recorded
// stream: hit/miss splits per access kind and the dirty write-back count.
type SetPrice struct {
	DemandHits, DemandMisses uint64
	FwdHits, FwdMisses       uint64
	WriteBacks               uint64
}

// Price returns the exact LRU counts for a (sets = 2^setsLog2, ways)
// geometry, or ok=false when the profile does not cover it.
func (p *SetProfile) Price(setsLog2, ways int) (SetPrice, bool) {
	if !p.Config.Covers(setsLog2, ways) {
		return SetPrice{}, false
	}
	l := &p.Levels[setsLog2-p.Config.MinSetsLog2]
	var out SetPrice
	for d, c := range l.DemandHist {
		if d < ways {
			out.DemandHits += c
		} else {
			out.DemandMisses += c
		}
	}
	for d, c := range l.FwdHist {
		if d < ways {
			out.FwdHits += c
		} else {
			out.FwdMisses += c
		}
	}
	out.WriteBacks = l.WriteBacks[ways]
	return out, true
}

// SizeBytes estimates the snapshot's memory footprint (cache accounting).
func (p *SetProfile) SizeBytes() int64 {
	var n int64 = 64
	for i := range p.Levels {
		l := &p.Levels[i]
		n += 32 + 8*int64(len(l.DemandHist)+len(l.FwdHist)+len(l.WriteBacks))
	}
	return n
}
