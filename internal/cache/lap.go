package cache

import (
	"math"
	"math/bits"
	"slices"
)

// A recorded pass is replayed twice, as an untimed warm-up lap and then as
// the timed lap, and the timed lap repeats most of the warm-up's work. The
// L1 never depends on the level below it: it is write-through, it is not
// inclusive, and the prefetcher, when it runs, fills only the L2. So once
// the timed lap's L1 is equivalent to the warm-up's L1 at the same entry
// of the record, every later L1 outcome repeats the warm-up's, and the
// rest of the timed lap only has to run the level below the L1 over the
// entries that reached it. WarmUpLines captures those entries and the L1
// at every checkpoint; TimedLines looks for the first checkpoint where its
// L1 matches (Cache.matchState) and replays only the captured rest. Up to
// that checkpoint it captures its own entries over the warm-up's, so that
// afterwards the capture describes the timed lap and Reached can list
// what that lap sent below the L1.

// checkpointEntries is the spacing, in record entries, of the L1 states
// the warm-up lap keeps. A checkpoint packs the L1 in one uint32 per way:
// 2 KiB for the SCC's 128 sets of 4 ways, 1 B per record entry. It is a
// multiple of 64, so a checkpoint starts a word of the capture's bitmaps.
const checkpointEntries = 2048

// lapCapture is the warm-up lap's capture. Its buffers stay with the
// hierarchy, so a hierarchy reused across records reuses them too.
type lapCapture struct {
	// ops is the record whose latest lap the capture describes; nil when
	// there is none.
	ops []uint32
	// warm is set while that lap is ops' warm-up, which a TimedLines(ops)
	// may skip from.
	warm bool
	// reached has bit i set when entry i of ops reached below the L1, and
	// forwarded when it did so as a store hit rather than a demand miss:
	// 2 bits per entry.
	reached, forwarded []uint64
	// states holds the L1's packed state (Cache.appendState) before every
	// checkpointEntries-th entry.
	states []uint32
	// lines and plru keep the L1's contents at the start of the timed lap.
	lines []uint64
	plru  []uint32
	// tail lists one checkpoint's reached entries as index<<1 | demand
	// for the tailLap loop.
	tail []uint32
}

// WarmUpLines runs ops exactly like AccessLines, as the untimed lap before
// TimedLines(ops). It also captures what the timed lap needs to skip its
// L1 once that matches the warm-up's. It captures nothing, and the timed
// lap runs in full, when captures says so: with the prefetcher on, a
// record of 2^31 entries or more, or an L1 other than a tree-PLRU one of
// 2 or more sets and at most 8 ways.
func (h *Hierarchy) WarmUpLines(ops []uint32) {
	if !h.captures(ops) {
		h.AccessLines(ops)
		return
	}
	lap := &h.lap
	words := (len(ops) + 63) / 64
	lap.reached, lap.forwarded = zeroed(lap.reached, words), zeroed(lap.forwarded, words)
	checkpoints := (len(ops) + checkpointEntries - 1) / checkpointEntries
	lap.states = slices.Grow(lap.states[:0], checkpoints*len(h.L1.lines))
	for from := 0; from < len(ops); from += checkpointEntries {
		lap.states = h.L1.appendState(lap.states)
		access[warmLap](h, ops[from:min(from+checkpointEntries, len(ops))], false, from)
	}
	lap.ops, lap.warm = ops, true
}

// zeroed returns n zero words, in buf when it holds them.
func zeroed(buf []uint64, n int) []uint64 {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// captures reports whether a warm-up lap over ops can be captured: the
// prefetcher must be off (it would fill between accesses, and with the L2
// disabled it fills the L1), a record index must fit in 31 bits, and the
// L1 must be tree-PLRU of at most 8 ways (packSet's table) with every line
// word below 2^32, so that a packed state loses nothing. Record lines are
// below 2^31, so with two or more L1 sets their tags stay below 2^30; only
// earlier Access calls can leave a wider word.
func (h *Hierarchy) captures(ops []uint32) bool {
	l1 := h.L1
	if h.NextLinePrefetch || l1.plruRelative == nil || len(ops) >= 1<<31 || l1.setMask == 0 {
		return false
	}
	for _, v := range l1.lines {
		if v > math.MaxUint32 {
			return false
		}
	}
	return true
}

// TimedLines runs ops with exactly the effect of AccessLines(ops). When the
// hierarchy's last lap was WarmUpLines(ops), with nothing run since, it
// runs the L1 only up to the first checkpoint where it matches the warm-up
// lap's L1, capturing its entries there over the warm-up's. From there it
// adds the warm-up's L1 outcomes, runs the level below the L1 over the
// entries the warm-up captured, and leaves the L1 as the two plain laps
// would: equivalent to where the timed lap started. The capture then
// describes the timed lap.
func (h *Hierarchy) TimedLines(ops []uint32) { h.timedLines(ops) }

// timedLines is TimedLines; it returns the entry before which the L1
// matched, or -1 when the lap ran in full.
func (h *Hierarchy) timedLines(ops []uint32) (matched int) {
	lap := &h.lap
	if !lap.warm || !sameRecord(ops, lap.ops) {
		h.AccessLines(ops)
		return -1
	}
	lap.warm = false
	l1 := h.L1
	lap.lines, lap.plru = append(lap.lines[:0], l1.lines...), append(lap.plru[:0], l1.plru...)
	words := len(l1.lines)
	for from, k := 0, 0; from < len(ops); from, k = from+checkpointEntries, k+1 {
		if l1.matchState(lap.states[k*words : (k+1)*words]) {
			h.replayTail(ops, from)
			return from
		}
		// A checkpoint starts a bitmap word, so the block's words are its
		// own.
		to := min(from+checkpointEntries, len(ops))
		clear(lap.reached[from/64 : (to+63)/64])
		clear(lap.forwarded[from/64 : (to+63)/64])
		access[warmLap](h, ops[from:to], false, from)
	}
	return -1
}

// sameRecord reports whether a and b are one record: the same entries at
// the same address. A nil record is no record, not even an empty one.
func sameRecord(a, b []uint32) bool {
	return a != nil && b != nil && len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Reached calls fn, in record order, with the index of every entry of ops
// that the hierarchy's latest lap sent below the L1, and with forwarded
// set when it went as a store hit rather than as an L1 miss. That lap must
// be WarmUpLines(ops), or the TimedLines(ops) after it, with nothing run
// since. Reached panics otherwise, and when that lap captured nothing
// (see WarmUpLines); an empty record reaches nothing.
func (h *Hierarchy) Reached(ops []uint32, fn func(i int, forwarded bool)) {
	lap := &h.lap
	if len(ops) == 0 {
		return
	}
	if !sameRecord(ops, lap.ops) {
		panic("cache: Reached needs the record of the hierarchy's latest captured lap")
	}
	for wi, word := range lap.reached {
		for fwd := lap.forwarded[wi]; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			fn(wi*64+b, fwd>>b&1 != 0)
		}
	}
}

// replayTail finishes a timed lap whose L1 matched the warm-up's before
// entry from. The captured entries from there on run below the L1, a
// checkpoint's worth at a time, and count the L1's misses and
// write-throughs; every other entry is an L1 hit. Each of those misses
// evicts a line: the lap started from the warm-up's end, whose L1 it ends
// equivalent to, so its L1 never holds fewer valid lines than that and
// fills no free way. The L1 then takes the contents it had at the lap's
// start.
func (h *Hierarchy) replayTail(ops []uint32, from int) {
	lap, l1 := &h.lap, h.L1
	misses := l1.stats.Misses
	for lo := from; lo < len(ops); lo += checkpointEntries {
		lap.tail = lap.tail[:0]
		for wi := lo / 64; wi < min(lo+checkpointEntries, len(ops)+63)/64; wi++ {
			for word, fwd := lap.reached[wi], lap.forwarded[wi]; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				lap.tail = append(lap.tail, uint32(wi*64+b)<<1|uint32(^fwd>>b&1))
			}
		}
		access[tailLap](h, ops, false, 0)
	}
	misses = l1.stats.Misses - misses
	copy(l1.lines, lap.lines)
	copy(l1.plru, lap.plru)
	entries := uint64(len(ops) - from)
	l1.stats.Hits += entries - misses
	l1.stats.Evictions += misses
	h.events.Accesses += entries
	h.events.L1Hits += entries - misses
}
