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
	return access(h, []uint64{addr}, write)
}

// AccessLines runs a block of accesses in order. Each entry is
// line<<1 | store, with line counted in LineBytes units: the block has
// exactly the effect of calling Access(line*LineBytes, store) for each
// entry.
func (h *Hierarchy) AccessLines(ops []uint32) {
	access(h, ops, false)
}

// access runs ops through the accessLines instantiation that fixes both
// way counts at 4 (wayCount) when the hierarchy is the SCC's: a 4-way L1
// and, if enabled, a 4-way L2. Any other hierarchy runs on the run-time
// counts.
func access[E uint32 | uint64](h *Hierarchy, ops []E, store bool) Level {
	if h.L1.ways == 4 && (h.L2 == nil || h.L2.ways == 4) {
		return accessLines[[4]struct{}, [4]struct{}](h, ops, store)
	}
	return accessLines[anyWays, anyWays](h, ops, store)
}

// accessLines is the one access loop of both entry points: Access passes
// addresses (uint64 entries, every one a store when store is set) and
// AccessLines line<<1|store entries (uint32). It returns the level that
// satisfied the last access. Every level step inlines, so the common paths
// make no call. An entry that reloads the previous entry's line, a fifth
// of a CSR record, skips the lookup.
//
// The write-through L1 forwards every store below, so an L1 store hit is
// also a store to the level below; an L1 miss is one access to the level
// below, a store when the access is one. A demand miss that reaches memory
// triggers the next-line prefetch when it is enabled.
func accessLines[W1, W2 wayCount, E uint32 | uint64](h *Hierarchy, ops []E, store bool) (lvl Level) {
	l1, l2, ev := h.L1, h.L2, &h.events
	shift, nextLine := l1.lineShift&63, h.NextLinePrefetch
	addresses := uint64(^E(0)) == math.MaxUint64
	// again is the load entry that re-reads the line the block's previous
	// access touched. That line is the most recently used way of its L1
	// set, so the load hits it, and touching it again changes no
	// replacement decision. The prefetcher fills between accesses, so it
	// turns the shortcut off. It starts above every uint32 entry, so the
	// block's first entry never takes the shortcut.
	again := uint64(math.MaxUint64)
	for _, op := range ops {
		if uint64(op) == again && !addresses {
			ev.Accesses++
			l1.stats.Hits++
			ev.L1Hits++
			lvl = LevelL1
			continue
		}
		if !nextLine {
			again = uint64(op &^ 1)
		}
		addr, write := uint64(op), store
		if !addresses {
			addr, write = uint64(op>>1)<<shift, op&1 != 0
		}
		ev.Accesses++
		forward := l1.writeThrough(write)
		set, ln, key := locate[W1](l1, addr)
		if hit := probe[W1](ln, key); hit != 0 {
			w := bits.TrailingZeros64(hit)
			l1.hit(ln, w, write)
			l1.touch(set, w)
			ev.L1Hits++
			lvl = LevelL1
			switch {
			case !forward:
			case l2 == nil:
				ev.MemWriteThroughs++
			default:
				l2.writeThrough(true)
				set, ln, key := locate[W2](l2, addr)
				if hit := probe[W2](ln, key); hit != 0 {
					w := bits.TrailingZeros64(hit)
					l2.hit(ln, w, true)
					l2.touch(set, w)
					break
				}
				ev.MemLineFills++ // write-allocate fill from memory
				w, ok := l2.victim(set, ln)
				if !ok {
					w = l2.victimSlow(set)
				}
				ev.MemWriteBacks += l2.fill(ln, w, key, true) >> 1 & lineValid
				l2.touch(set, w)
			}
			continue
		}
		w, ok := l1.victim(set, ln)
		if !ok {
			w = l1.victimSlow(set)
		}
		l1.fill(ln, w, key, write) // a write-through L1 evicts nothing dirty
		l1.touch(set, w)
		if l2 != nil {
			l2.writeThrough(write)
			set, ln, key := locate[W2](l2, addr)
			if hit := probe[W2](ln, key); hit != 0 {
				w := bits.TrailingZeros64(hit)
				l2.hit(ln, w, write)
				l2.touch(set, w)
				ev.L2Hits++
				lvl = LevelL2
				continue
			}
			w, ok := l2.victim(set, ln)
			if !ok {
				w = l2.victimSlow(set)
			}
			ev.MemWriteBacks += l2.fill(ln, w, key, write) >> 1 & lineValid
			l2.touch(set, w)
		} else if write {
			ev.MemWriteThroughs++
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
	h.L1.Flush() // the write-through L1 holds nothing dirty
	if h.L2 == nil {
		return 0
	}
	wb := h.L2.Flush()
	h.events.MemWriteBacks += uint64(wb)
	return wb
}

// LineBytes returns the hierarchy's line size (L1's; levels share it).
func (h *Hierarchy) LineBytes() int { return h.L1.cfg.LineBytes }
