package cache

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
func (h *Hierarchy) Access(addr uint64, write bool) Level {
	h.events.Accesses++
	if h.L1.Access(addr, write).Hit {
		h.events.L1Hits++
		// The write-through L1 forwards every store below even on a hit.
		if write {
			h.storeBelow(addr)
		}
		return LevelL1
	}

	// L1 miss: one access to the level below brings the line in. The
	// write-through L1 also forwards a store, so the below access is then
	// a store (the L2 absorbs the dirty data).
	if h.L2 == nil {
		h.events.MemAccesses++
		h.events.MemLineFills++
		if write {
			h.events.MemWriteThroughs++
		}
		h.prefetch(addr)
		return LevelMemory
	}
	r2 := h.L2.Access(addr, write)
	if r2.WroteBack {
		h.events.MemWriteBacks++
	}
	if r2.Hit {
		h.events.L2Hits++
		return LevelL2
	}
	h.events.MemAccesses++
	h.events.MemLineFills++
	h.prefetch(addr)
	return LevelMemory
}

// prefetch fills the line after addr into the cache below the L1 (demand
// misses beyond it still count; the fill itself only adds traffic).
func (h *Hierarchy) prefetch(addr uint64) {
	if !h.NextLinePrefetch {
		return
	}
	next := (addr + uint64(h.LineBytes())) &^ uint64(h.LineBytes()-1)
	target := h.L2
	if target == nil {
		target = h.L1
	}
	if target.Contains(next) {
		return
	}
	r := target.Access(next, false)
	if r.WroteBack {
		h.events.MemWriteBacks++
	}
	h.events.MemLineFills++
	h.events.Prefetches++
}

// storeBelow forwards an L1 write-through hit to the level below,
// updating memory-traffic accounting.
func (h *Hierarchy) storeBelow(addr uint64) {
	if h.L2 == nil {
		h.events.MemWriteThroughs++
		return
	}
	r2 := h.L2.Access(addr, true)
	if !r2.Hit {
		h.events.MemLineFills++ // write-allocate fill from memory
	}
	if r2.WroteBack {
		h.events.MemWriteBacks++
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
