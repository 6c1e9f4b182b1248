package cache

import (
	"math"
	"math/bits"
)

// Hierarchy chains a private L1 in front of an optional private L2, the way
// each SCC core sees memory. It classifies every access into L1 hit, L2 hit
// or memory access, and tracks the memory traffic (line fills and dirty
// write-backs) the core generates - the quantities the timing model and the
// memory-controller contention model consume.
type Hierarchy struct {
	L1 *Cache
	// L2 may be nil: the SCC can boot with L2 disabled, which the
	// paper's Figure 7 experiment exploits.
	L2 *Cache
	// NextLinePrefetch enables a simple sequential prefetcher: every
	// miss that reaches memory also fills the following line into the
	// L2 (or L1 when the L2 is disabled). The stock SCC has no
	// prefetcher; this models the software-prefetch optimisation of
	// Williams et al. that the paper's related work discusses.
	NextLinePrefetch bool

	events HierarchyStats
	// lap holds what WarmUpLines captured for the TimedLines after it.
	lap lapCapture
}

// HierarchyStats aggregates the outcome of every access.
type HierarchyStats struct {
	// Accesses counts calls to Access.
	Accesses uint64
	// L1Hits, L2Hits, MemAccesses partition Accesses.
	L1Hits, L2Hits, MemAccesses uint64
	// MemLineFills counts lines fetched from memory (= MemAccesses).
	MemLineFills uint64
	// MemWriteBacks counts dirty lines written to memory.
	MemWriteBacks uint64
	// MemWriteThroughs counts write-through stores that reach memory
	// (L2 disabled and a write-through L1).
	MemWriteThroughs uint64
	// Prefetches counts next-line fills issued by the prefetcher; they
	// add memory traffic (MemLineFills) but no demand stalls.
	Prefetches uint64
}

// MemReadBytes returns bytes read from memory given the line size.
func (s HierarchyStats) MemReadBytes(lineBytes int) uint64 {
	return s.MemLineFills * uint64(lineBytes)
}

// MemWriteBytes returns bytes written to memory given the line size.
// Write-throughs are counted as single words (8 bytes), line write-backs as
// full lines.
func (s HierarchyStats) MemWriteBytes(lineBytes int) uint64 {
	return s.MemWriteBacks*uint64(lineBytes) + s.MemWriteThroughs*8
}

// NewHierarchy builds a hierarchy; l2 may be nil to disable the second level.
// The L1 must be write-through, as the P54C's is: the hierarchy forwards
// every store below it and never sees an L1 victim write-back.
func NewHierarchy(l1, l2 *Cache) *Hierarchy {
	if l1 == nil {
		panic("cache: hierarchy requires an L1")
	}
	if l1.cfg.WriteBack {
		panic("cache: hierarchy requires a write-through L1")
	}
	return &Hierarchy{L1: l1, L2: l2}
}

// NewSCCHierarchy builds the default SCC per-core hierarchy.
// withL2=false models the L2-disabled boot configuration.
func NewSCCHierarchy(withL2 bool) *Hierarchy {
	var l2 *Cache
	if withL2 {
		l2 = New(SCCL2())
	}
	return NewHierarchy(New(SCCL1()), l2)
}

// Level identifies where an access was satisfied.
type Level int

const (
	// LevelL1 means the L1 held the line.
	LevelL1 Level = iota
	// LevelL2 means the L1 missed and the L2 held the line.
	LevelL2
	// LevelMemory means both levels missed (or the L2 is disabled).
	LevelMemory
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMemory:
		return "memory"
	default:
		return "invalid"
	}
}

// Access simulates one load or store and returns the level that satisfied it.
//
// Access stays out of line: inlined into another package, its one-entry
// slice escaped to the heap through the generic call below, one
// allocation per access.
//
//go:noinline
func (h *Hierarchy) Access(addr uint64, write bool) Level {
	h.lap.ops = nil
	return access[plainLap](h, []uint64{addr}, write, 0)
}

// AccessLines runs a block of accesses in order. Each entry is
// line<<1 | store, with line counted in LineBytes units: the block has
// exactly the effect of calling Access(line*LineBytes, store) for each
// entry.
func (h *Hierarchy) AccessLines(ops []uint32) {
	h.lap.ops = nil
	access[plainLap](h, ops, false, 0)
}

// HitMRU counts n loads that each re-read the line of its L1 set's
// previous access. Such a load hits the set's most recently used way, and
// touching that way again changes no replacement state; the write-through
// L1 sends nothing below on a load hit. So each of them is an L1 hit that
// changes nothing but the counters, wherever it falls in a block, unless
// the prefetcher can fill the L1 (NextLinePrefetch with the L2 disabled)
// between the two accesses.
func (h *Hierarchy) HitMRU(n uint64) {
	h.events.Accesses += n
	h.events.L1Hits += n
	h.L1.stats.Hits += n
}

// access runs ops through the accessLines instantiation that fixes both
// way counts at 4 (wayCount) when the hierarchy is the SCC's: a 4-way L1
// and, if enabled, a 4-way L2. Any other hierarchy runs on the run-time
// counts.
func access[M lapMode, E uint32 | uint64](h *Hierarchy, ops []E, store bool, from int) Level {
	if h.L1.ways == 4 && (h.L2 == nil || h.L2.ways == 4) {
		return accessLines[[4]struct{}, [4]struct{}, M](h, ops, store, from)
	}
	return accessLines[anyWays, anyWays, M](h, ops, store, from)
}

// lapMode selects what accessLines runs: plainLap runs each entry through
// both levels; warmLap does the same and also marks each entry that
// reaches below the L1 (WarmUpLines); tailLap runs only marked entries,
// and only below the L1 (TimedLines). Like wayCount, each is an array type
// of its own GC shape, so every mode compiles on its own and a plain lap
// pays nothing for the others.
type lapMode interface {
	plainLap | warmLap | tailLap
}

type (
	plainLap = [0]struct{}
	warmLap  = [1]struct{}
	tailLap  = [2]struct{}
)

// accessLines is the one access loop: Access passes addresses (uint64
// entries, every one a store when store is set) and the line-entry methods
// line<<1|store entries (uint32). It returns the level that satisfied the
// last access. Every level step inlines, so the common paths make no call.
//
// The write-through L1 forwards every store below, so an L1 store hit is
// also a store to the level below; an L1 miss is a demand access to the
// level below, a store when the access is one. A demand miss that reaches
// memory triggers the next-line prefetch when it is enabled.
//
// Under warmLap, ops is a block of the captured record that starts at
// entry from, and each entry that reaches below the L1 sets its bit in
// h.lap.reached, and also in h.lap.forwarded when it is a store hit. Under
// tailLap, ops is the whole record and the loop runs the entries h.lap.tail
// lists instead, as index<<1 | demand: each counts its L1 miss and
// write-through and takes the transition below the L1 again, while the L1
// itself is left alone.
func accessLines[W1, W2 wayCount, M lapMode, E uint32 | uint64](h *Hierarchy, ops []E, store bool, from int) (lvl Level) {
	var mode M
	l1, l2, ev := h.L1, h.L2, &h.events
	shift, nextLine := l1.lineShift&63, h.NextLinePrefetch
	addresses := uint64(^E(0)) == math.MaxUint64
	n, tail := len(ops), h.lap.tail
	reached, forwarded := h.lap.reached, h.lap.forwarded
	if len(mode) == len(tailLap{}) {
		n = len(tail)
	}
	for i := 0; i < n; i++ {
		var op E
		demand := true
		if len(mode) == len(tailLap{}) {
			c := tail[i]
			op, demand = ops[c>>1], c&1 != 0
		} else {
			op = ops[i]
		}
		addr, write := uint64(op), store
		if !addresses {
			addr, write = uint64(op>>1)<<shift, op&1 != 0
		}
		if len(mode) == len(tailLap{}) {
			l1.writeThrough(write)
			l1.stats.Misses += b2u(demand)
		} else {
			ev.Accesses++
			forward := l1.writeThrough(write)
			set, ln, key := locate[W1](l1, addr)
			if hit := probe[W1](ln, key); hit != 0 {
				w := bits.TrailingZeros64(hit)
				l1.hit(ln, w, write)
				l1.touch(set, w)
				ev.L1Hits++
				lvl = LevelL1
				if !forward {
					continue
				}
				demand = false
				if len(mode) == len(warmLap{}) {
					forwarded[uint(from+i)>>6] |= 1 << (uint(from+i) & 63)
				}
			} else {
				w, ok := l1.victim(set, ln)
				if !ok {
					w = l1.victimSlow(set)
				}
				l1.fill(ln, w, key, write) // a write-through L1 evicts nothing dirty
				l1.touch(set, w)
			}
			if len(mode) == len(warmLap{}) {
				reached[uint(from+i)>>6] |= 1 << (uint(from+i) & 63)
			}
		}
		if l2 == nil {
			if write {
				ev.MemWriteThroughs++
			}
			if !demand {
				continue
			}
		} else {
			l2.writeThrough(write)
			set, ln, key := locate[W2](l2, addr)
			if hit := probe[W2](ln, key); hit != 0 {
				w := bits.TrailingZeros64(hit)
				l2.hit(ln, w, write)
				l2.touch(set, w)
				if demand {
					ev.L2Hits++
					lvl = LevelL2
				}
				continue
			}
			w, ok := l2.victim(set, ln)
			if !ok {
				w = l2.victimSlow(set)
			}
			ev.MemWriteBacks += l2.fill(ln, w, key, write) >> 1 & lineValid
			l2.touch(set, w)
			if !demand {
				ev.MemLineFills++ // write-allocate fill of a forwarded store
				continue
			}
		}
		ev.MemAccesses++
		ev.MemLineFills++
		lvl = LevelMemory
		if nextLine {
			prefetchAfter[W1, W2](l1, l2, ev, addr)
		}
	}
	return lvl
}

// prefetchAfter fills the line after addr into the cache below the L1, or
// the L1 itself with the L2 disabled. Demand misses beyond it still count;
// the fill itself only adds traffic.
func prefetchAfter[W1, W2 wayCount](l1, l2 *Cache, ev *HierarchyStats, addr uint64) {
	lineBytes := uint64(l1.cfg.LineBytes)
	next := (addr + lineBytes) &^ (lineBytes - 1)
	var filled bool
	var old uint64
	if l2 != nil {
		filled, old = prefetch[W2](l2, next)
	} else {
		filled, old = prefetch[W1](l1, next)
	}
	if filled {
		ev.MemWriteBacks += old >> 1 & lineValid
		ev.MemLineFills++
		ev.Prefetches++
	}
}

// Stats returns the accumulated hierarchy statistics.
func (h *Hierarchy) Stats() HierarchyStats { return h.events }

// ResetStats clears hierarchy and per-level counters, leaving contents.
func (h *Hierarchy) ResetStats() {
	h.events = HierarchyStats{}
	h.L1.ResetStats()
	if h.L2 != nil {
		h.L2.ResetStats()
	}
}

// Flush flushes both levels (dirty data reaches memory) and returns the
// number of dirty lines that reached memory.
func (h *Hierarchy) Flush() int {
	h.lap.ops = nil
	h.L1.Flush() // the write-through L1 holds nothing dirty
	if h.L2 == nil {
		return 0
	}
	wb := h.L2.Flush()
	h.events.MemWriteBacks += uint64(wb)
	return wb
}

// Reset empties both levels and zeroes every counter, which leaves the
// hierarchy behaving as a new one: TrueLRU stamps left by the flushed
// lines are rewritten before any is read, since a set refills its ways in
// order. Its buffers are kept for reuse.
func (h *Hierarchy) Reset() {
	h.Flush()
	h.ResetStats()
}

// LineBytes returns the hierarchy's line size (L1's; levels share it).
func (h *Hierarchy) LineBytes() int { return h.L1.cfg.LineBytes }
