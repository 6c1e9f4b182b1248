package sparse

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Process-wide matrix-cache effectiveness metrics (internal/obs). Every
// MatrixCache in the process feeds the same counters (in practice one
// cache serves a run); the gauges track the most recently updated
// cache's resident set. Write-only observability: never read back.
var (
	cacheHits       = obs.Default.Counter("sparse.matrix_cache.hits")
	cacheMisses     = obs.Default.Counter("sparse.matrix_cache.misses")
	cacheEvictions  = obs.Default.Counter("sparse.matrix_cache.evictions")
	cacheDupGens    = obs.Default.Counter("sparse.matrix_cache.duplicate_generations")
	cacheDupBytes   = obs.Default.Counter("sparse.matrix_cache.duplicate_bytes_wasted")
	cacheUsedGauge  = obs.Default.Gauge("sparse.matrix_cache.used_bytes")
	cacheResidGauge = obs.Default.Gauge("sparse.matrix_cache.resident")
	// Profile (blob side-store) effectiveness: persisted stream profiles
	// the analytic pricing path (internal/sim) keys by matrix content.
	profHits       = obs.Default.Counter("sparse.matrix_cache.profile_hits")
	profMisses     = obs.Default.Counter("sparse.matrix_cache.profile_misses")
	profEvictions  = obs.Default.Counter("sparse.matrix_cache.profile_evictions")
	profUsedGauge  = obs.Default.Gauge("sparse.matrix_cache.profile_used_bytes")
	profResidGauge = obs.Default.Gauge("sparse.matrix_cache.profile_resident")
)

// MatrixCache memoises generated testbed matrices keyed by (entry name,
// scale) behind a byte-budgeted LRU. Experiment sweeps revisit the same
// matrices once per configuration (core count, clock config, kernel
// variant, ...); regenerating them dominated sweep wall clock, but the
// full-scale testbed (885 MiB of CSR data) is most of a 1 GiB budget on
// its own. The budget bounds resident bytes, priced by CSR.SizeBytes
// (Generate returns arrays with no spare capacity, so that is what a
// matrix holds), and least-recently-used matrices are dropped first,
// preserving the release-before-next contract of Config.forEachMatrix in
// internal/experiments.
//
// Generation is deterministic (each entry carries a fixed seed), so a
// cached matrix is identical to a freshly generated one.
//
// Besides matrices the cache keeps opaque side blobs (GetBlob/PutBlob):
// content-addressed stream profiles the analytic pricing fast path
// persists alongside the matrices they were traced from. Blobs live in
// the SAME LRU list and byte budget as matrices - one resident-bytes
// bound governs both - but their hit/miss/eviction traffic is accounted
// separately (profile_* counters, CacheStats.Profile* fields), and
// their total resident bytes are additionally capped by a blob budget
// (a quarter of the byte budget by default, see SetBlobBudget): at
// -scale 1.0 a single cell profile runs to hundreds of megabytes, and
// without the cap a geometry sweep's profiles would evict every
// resident matrix and thrash the cache it is supposed to accelerate.
// Inserting a blob therefore evicts least-recently-used BLOBS first
// until the blob side fits its own budget, and only then competes with
// matrices for the shared bound.
type MatrixCache struct {
	mu         sync.Mutex
	budget     int64
	blobBudget int64
	used       int64
	lru        *list.List // front = most recently used; values are *cacheEntry
	byKey      map[any]*list.Element

	hits, misses, evictions uint64
	// dupGens counts generations that lost a concurrent-miss race on the
	// same key (the work was done, the result discarded in favour of the
	// resident copy); dupBytes is the size of those discarded matrices.
	dupGens  uint64
	dupBytes uint64

	// Blob (profile) accounting, kept apart from matrix traffic.
	profHits, profMisses, profEvictions uint64
	profUsed                            int64
	profResident                        int

	// gen overrides matrix generation (test seam for orchestrating
	// concurrent duplicate misses deterministically); nil uses
	// TestbedEntry.GenerateScaled.
	gen func(TestbedEntry, float64) *CSR

	// rec is the flight recorder of the job currently attributed with
	// this cache's traffic (see SetRecorder). Kept outside the mutex so
	// arming/clearing never contends with Get.
	rec atomic.Pointer[obs.Recorder]
}

// flightTrack is the timeline row cache events land on.
const flightTrack = "sparse.matrix_cache"

// SetRecorder attributes subsequent hit/miss/eviction events to rec's
// flight recorder. A daemon shares one cache across jobs, so like
// CounterScope deltas the attribution is exact when one job runs at a
// time and best-effort (events may belong to a concurrent job) when
// scopes overlap - acceptable for a post-mortem timeline, and the
// recorder is write-only so it can never change what the cache returns.
func (c *MatrixCache) SetRecorder(rec *obs.Recorder) {
	if c != nil {
		c.rec.Store(rec)
	}
}

// ClearRecorder detaches rec if (and only if) it is still the attached
// recorder, so a finishing job cannot clear a successor's attribution.
func (c *MatrixCache) ClearRecorder(rec *obs.Recorder) {
	if c != nil {
		c.rec.CompareAndSwap(rec, nil)
	}
}

func (c *MatrixCache) recorder() *obs.Recorder {
	if c == nil {
		return nil
	}
	return c.rec.Load()
}

type matrixKey struct {
	name  string
	scale float64
}

// blobKey wraps blob keys so they can never collide with matrixKey in the
// shared byKey map.
type blobKey string

type cacheEntry struct {
	key  any // matrixKey or blobKey
	m    *CSR
	blob any
	size int64
}

func (e *cacheEntry) isBlob() bool {
	_, ok := e.key.(blobKey)
	return ok
}

// NewMatrixCache builds a cache that keeps at most budgetBytes of CSR data
// resident. A non-positive budget disables retention entirely: Get still
// works but always regenerates (the determinism/debugging oracle). Side
// blobs (profiles) are additionally capped at a quarter of the budget;
// SetBlobBudget tunes that.
func NewMatrixCache(budgetBytes int64) *MatrixCache {
	return &MatrixCache{
		budget:     budgetBytes,
		blobBudget: budgetBytes / 4,
		lru:        list.New(),
		byKey:      make(map[any]*list.Element),
	}
}

// SetBlobBudget caps the total resident bytes of side blobs (profiles)
// at b, clamped to the overall byte budget. 0 disables blob retention
// while leaving matrix memoisation intact. Lowering the budget below
// the current blob usage takes effect lazily at the next PutBlob.
func (c *MatrixCache) SetBlobBudget(b int64) {
	c.mu.Lock()
	if b > c.budget {
		b = c.budget
	}
	if b < 0 {
		b = 0
	}
	c.blobBudget = b
	c.mu.Unlock()
}

// RetainsBlobs reports whether PutBlob can retain anything at all: both
// the overall byte budget and the blob budget must be positive. Safe on
// a nil cache (false). The analytic pricing path (internal/sim) uses
// this to decide whether a profile store is worth tracing for: against
// a non-retaining store, auto mode stays exact instead of silently
// rebuilding the reuse profile for every sweep cell.
func (c *MatrixCache) RetainsBlobs() bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget > 0 && c.blobBudget > 0
}

// generate resolves the generation function.
func (c *MatrixCache) generate(e TestbedEntry, scale float64) *CSR {
	if c != nil && c.gen != nil {
		return c.gen(e, scale)
	}
	return e.GenerateScaled(scale)
}

// evictUntil drops LRU entries (of either kind) until size more bytes fit
// the budget; callers hold the lock. It returns the per-kind eviction
// counts of this pass.
func (c *MatrixCache) evictUntil(size int64) (mat, blob uint64) {
	for c.used+size > c.budget {
		back := c.lru.Back()
		ent := back.Value.(*cacheEntry)
		c.lru.Remove(back)
		delete(c.byKey, ent.key)
		c.used -= ent.size
		if ent.isBlob() {
			c.profEvictions++
			c.profUsed -= ent.size
			c.profResident--
			blob++
		} else {
			c.evictions++
			mat++
		}
	}
	return mat, blob
}

// Get returns the entry's matrix at the given scale, generating it on a
// miss. The returned matrix is shared across callers and must be treated
// as read-only; reordering and format conversions in this package already
// copy. A nil cache is valid and always generates.
func (c *MatrixCache) Get(e TestbedEntry, scale float64) *CSR {
	if c == nil {
		return e.GenerateScaled(scale)
	}
	k := matrixKey{name: e.Name, scale: scale}
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(el)
		c.hits++
		m := el.Value.(*cacheEntry).m
		c.mu.Unlock()
		cacheHits.Add(1)
		c.recorder().Record(flightTrack, "cache_hit", e.Name, "")
		return m
	}
	c.misses++
	c.mu.Unlock()
	cacheMisses.Add(1)
	c.recorder().Record(flightTrack, "cache_miss", e.Name, "")

	// Generate outside the lock so concurrent misses on different keys
	// do not serialise on the expensive part.
	m := c.generate(e, scale)
	size := m.SizeBytes()

	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		// Another goroutine generated the same key while we did. Keep the
		// resident copy so every caller shares one instance; this return
		// is served from the cache, so it counts as a hit, and the
		// discarded generation is accounted as duplicated, wasted work.
		c.lru.MoveToFront(el)
		c.hits++
		c.dupGens++
		c.dupBytes += uint64(size)
		res := el.Value.(*cacheEntry).m
		c.mu.Unlock()
		cacheHits.Add(1)
		cacheDupGens.Add(1)
		cacheDupBytes.Add(uint64(size))
		return res
	}
	if size > c.budget {
		c.mu.Unlock()
		return m // larger than the whole budget: hand out uncached
	}
	evicted, evictedBlobs := c.evictUntil(size)
	c.byKey[k] = c.lru.PushFront(&cacheEntry{key: k, m: m, size: size})
	c.used += size
	used, resident := c.used, c.lru.Len()-c.profResident
	c.mu.Unlock()
	cacheEvictions.Add(evicted)
	profEvictions.Add(evictedBlobs)
	cacheUsedGauge.Set(used)
	cacheResidGauge.Set(int64(resident))
	if evicted+evictedBlobs > 0 {
		c.recorder().Recordf(flightTrack, "cache_evict", "evict",
			"inserting %s evicted %d matrices, %d blobs", e.Name, evicted, evictedBlobs)
	}
	return m
}

// GetBlob returns the side blob stored under key, refreshing its LRU
// position. Safe on a nil cache (always a miss).
func (c *MatrixCache) GetBlob(key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.byKey[blobKey(key)]; ok {
		c.lru.MoveToFront(el)
		c.profHits++
		v := el.Value.(*cacheEntry).blob
		c.mu.Unlock()
		profHits.Add(1)
		return v, true
	}
	c.profMisses++
	c.mu.Unlock()
	profMisses.Add(1)
	return nil, false
}

// evictBlobsUntil drops least-recently-used BLOB entries (skipping
// matrices) until size more blob bytes fit the blob budget; callers
// hold the lock. Returns the number of blobs evicted.
func (c *MatrixCache) evictBlobsUntil(size int64) (blob uint64) {
	for el := c.lru.Back(); el != nil && c.profUsed+size > c.blobBudget; {
		prev := el.Prev()
		ent := el.Value.(*cacheEntry)
		if ent.isBlob() {
			c.lru.Remove(el)
			delete(c.byKey, ent.key)
			c.used -= ent.size
			c.profEvictions++
			c.profUsed -= ent.size
			c.profResident--
			blob++
		}
		el = prev
	}
	return blob
}

// PutBlob stores a side blob of the given size under key. Capacity is
// blob-aware: least-recently-used blobs are evicted first until the
// blob side fits its own budget (SetBlobBudget; a quarter of the byte
// budget by default), then LRU entries of either kind go until the
// shared byte budget holds. Blobs can therefore never occupy more than
// the blob budget in aggregate - a flood of large profiles cannot evict
// every resident matrix. When the key is already resident - e.g. two
// cells of a geometry sweep built the same profile concurrently - the
// first copy wins so every caller shares one instance. Blobs larger
// than the blob budget (or any blob when either budget is
// non-positive) are not retained. Safe on a nil cache (no-op).
func (c *MatrixCache) PutBlob(key string, v any, size int64) {
	if c == nil || v == nil {
		return
	}
	if size < 0 {
		size = 0
	}
	k := blobKey(key)
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.lru.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	if size > c.budget || size > c.blobBudget {
		c.mu.Unlock()
		return
	}
	evictedBlobsFirst := c.evictBlobsUntil(size)
	evicted, evictedBlobs := c.evictUntil(size)
	evictedBlobs += evictedBlobsFirst
	c.byKey[k] = c.lru.PushFront(&cacheEntry{key: k, blob: v, size: size})
	c.used += size
	c.profUsed += size
	c.profResident++
	used, profUsed := c.used, c.profUsed
	matResident := c.lru.Len() - c.profResident
	profResident := c.profResident
	c.mu.Unlock()
	cacheEvictions.Add(evicted)
	profEvictions.Add(evictedBlobs)
	cacheUsedGauge.Set(used)
	cacheResidGauge.Set(int64(matResident))
	profUsedGauge.Set(profUsed)
	profResidGauge.Set(int64(profResident))
	if evicted+evictedBlobs > 0 {
		c.recorder().Recordf(flightTrack, "cache_evict", "evict",
			"storing blob evicted %d matrices, %d blobs", evicted, evictedBlobs)
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// DuplicateGenerations counts generations discarded after losing a
	// concurrent-miss race (each also counted one miss at entry and one
	// hit when the resident copy was returned); WastedBytes is the total
	// size of those discarded matrices.
	DuplicateGenerations   uint64
	WastedBytes            uint64
	Resident               int
	UsedBytes, BudgetBytes int64
	// Profile (blob side-store) traffic, disjoint from the matrix
	// counters above. ProfileUsedBytes is included in UsedBytes: one
	// budget governs both kinds, but blobs are additionally capped at
	// ProfileBudgetBytes in aggregate.
	ProfileHits, ProfileMisses, ProfileEvictions uint64
	ProfileResident                              int
	ProfileUsedBytes                             int64
	ProfileBudgetBytes                           int64
}

// Stats returns a snapshot of the cache counters. Safe on a nil cache.
func (c *MatrixCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:                 c.hits,
		Misses:               c.misses,
		Evictions:            c.evictions,
		DuplicateGenerations: c.dupGens,
		WastedBytes:          c.dupBytes,
		Resident:             c.lru.Len() - c.profResident,
		UsedBytes:            c.used,
		BudgetBytes:          c.budget,
		ProfileHits:          c.profHits,
		ProfileMisses:        c.profMisses,
		ProfileEvictions:     c.profEvictions,
		ProfileResident:      c.profResident,
		ProfileUsedBytes:     c.profUsed,
		ProfileBudgetBytes:   c.blobBudget,
	}
}
