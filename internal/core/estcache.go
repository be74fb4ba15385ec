package core

// The estimate cache: memoized read side of the query plane.
//
// Records are immutable once ingested (the store only ever adds or drops
// whole records), so an estimator's output is a pure function of the
// records it joins: (location, period set, split parameters) — until
// retention and a re-ingest change one of the named records.
// EstCache memoizes full estimator results behind that key plus a
// *fence*: the highest per-location sequence number among the named
// records, which the store issues once per admitted record and never
// reuses. Any change to the named set raises its fence; an upload at a
// period the set does not name leaves it alone. The key is the record
// set's identity, not its contents, so a caller can probe it from the
// store's index (store.Store.Fence) before reading a single bitmap. A
// stale entry is never returned — its key simply stops being generated —
// and dies by LRU eviction, so nothing ever scans the cache (lazy
// invalidation; DESIGN.md §13).
//
// Hits are bit-identical to misses by construction: the cache stores the
// exact result struct a cold computation produced and hands back copies
// of it. Nothing is recomputed on the hit path, so the floating-point
// contract of the estimators (AndOnes evaluation order and all) is
// trivially preserved.

import (
	"container/list"
	"slices"
	"sync"
	"sync/atomic"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// DefaultEstCacheEntries is the LRU capacity central servers use unless
// configured otherwise. An entry costs about 540 bytes counted in full
// (map slot, list element, entry and periods; measured by filling a
// cache of this capacity with a volume/point/p2p mix), so a full cache
// holds about 8.5 MiB: 1/30 of store.DefaultCacheBytes. One entry saves
// a join that streams up to 2.5 MiB (t = 10 records of m = 2^20 bits).
// The bound holds every distinct question of ptmload's query-mix (about
// 2,600), where 1024 entries evicted and recomputed thousands.
const DefaultEstCacheEntries = 1 << 14

// estKind separates the three estimator families in the key space.
type estKind uint8

const (
	estKindPoint estKind = 1 + iota
	estKindP2P
	estKindVolume
)

// estKey identifies one memoizable estimator invocation. Fences are part
// of the key: a change to a named record set raises its fence, so stale
// entries become unreachable instead of being hunted down. The period
// set enters as an FNV-1a hash; the entry keeps the exact periods and
// every hit re-verifies them, so a hash collision degrades to a miss,
// never to a wrong answer.
type estKey struct {
	kind           estKind
	strategy       SplitStrategy
	s              int
	t              int
	locA, locB     vhash.LocationID
	fenceA, fenceB uint64
	phash          uint64
}

// estEntry is one cached result (exactly one of point/p2p/volume is
// set).
type estEntry struct {
	key     estKey
	periods []record.PeriodID
	point   PointResult
	p2p     PointToPointResult
	volume  float64
}

// EstCacheStats is a snapshot of the cache's counters.
type EstCacheStats struct {
	Hits, Misses, Invalidations uint64
	Entries, Capacity           int
}

// EstCache is a bounded LRU of estimator results. A nil *EstCache is
// valid and computes every request directly, so one code path serves
// cached and uncached servers alike. All methods are safe for concurrent
// use; estimator computation happens outside the lock (two racing misses
// both compute — identical results, records being immutable — and the
// later store wins).
type EstCache struct {
	mu sync.Mutex
	//ptm:guardedby mu
	entries map[estKey]*list.Element
	//ptm:guardedby mu
	order *list.List // front = most recently used; Values are *estEntry
	cap   int

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64
}

// NewEstCache creates a cache bounded to capacity entries. A capacity
// <= 0 returns nil — the always-compute cache.
func NewEstCache(capacity int) *EstCache {
	if capacity <= 0 {
		return nil
	}
	return &EstCache{
		entries: make(map[estKey]*list.Element),
		order:   list.New(),
		cap:     capacity,
	}
}

// makeKey builds every cache key; probes and fills both go through it.
// periods must be sorted and free of duplicates (a record.Set's order).
//
//ptm:noalloc
func makeKey(kind estKind, strategy SplitStrategy, s int, locA, locB vhash.LocationID, fenceA, fenceB uint64, periods []record.PeriodID) estKey {
	return estKey{
		kind:     kind,
		strategy: strategy,
		s:        s,
		t:        len(periods),
		locA:     locA,
		locB:     locB,
		fenceA:   fenceA,
		fenceB:   fenceB,
		phash:    hashPeriods(periods),
	}
}

// hashPeriods folds sorted period IDs through FNV-1a. Collisions are
// tolerable (the hit path compares exact periods) but keep the common
// case one map probe.
//
//ptm:noalloc
func hashPeriods(periods []record.PeriodID) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, p := range periods {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(uint32(p)>>shift) & 0xff
			h *= prime64
		}
	}
	return h
}

// periodsMatch reports whether an entry's periods are exactly these.
//
//ptm:noalloc
func periodsMatch(a, b []record.PeriodID) bool {
	if len(a) != len(b) {
		return false
	}
	for i, p := range a {
		if p != b[i] {
			return false
		}
	}
	return true
}

// sortedPeriods returns a request's periods in sorted order: the slice
// itself when it is already sorted (the common case, no allocation),
// else a sorted copy. ok is false when a period repeats.
func sortedPeriods(periods []record.PeriodID) (sorted []record.PeriodID, ok bool) {
	if slices.IsSorted(periods) {
		sorted = periods
	} else {
		sorted = slices.Clone(periods)
		slices.Sort(sorted)
	}
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return nil, false
		}
	}
	return sorted, true
}

// lookup returns the entry for key if present with exactly the given
// periods, promoting it to most recently used, and counts the hit.
func (c *EstCache) lookup(key estKey, periods []record.PeriodID) (estEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return estEntry{}, false
	}
	e := el.Value.(*estEntry)
	if !periodsMatch(e.periods, periods) {
		// phash collision: fall through to a cold compute; the store will
		// overwrite this entry.
		return estEntry{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Add(1)
	return *e, true
}

// store inserts or replaces the entry for key, evicting the LRU tail
// beyond capacity.
func (c *EstCache) store(e *estEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.key]; ok {
		el.Value = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[e.key] = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*estEntry).key)
	}
}

// countMiss counts one query that the cache could not answer.
func (c *EstCache) countMiss() {
	c.misses.Add(1)
}

// probe looks a request up under the fences the store's Fence returned.
// periods may be in any order; one that repeats a period names no valid
// set and is never probed.
func (c *EstCache) probe(kind estKind, strategy SplitStrategy, s int, locA, locB vhash.LocationID, fenceA, fenceB uint64, periods []record.PeriodID) (estEntry, bool) {
	if c == nil {
		return estEntry{}, false
	}
	sorted, ok := sortedPeriods(periods)
	if !ok {
		return estEntry{}, false
	}
	return c.lookup(makeKey(kind, strategy, s, locA, locB, fenceA, fenceB, sorted), sorted)
}

// ProbePoint answers a point query from the cache alone: the result
// Point cached under the same (location, fence, periods, strategy), if
// any. A hit counts one hit; a miss counts nothing, because the caller
// then collects the set and calls Point, which counts it.
func (c *EstCache) ProbePoint(loc vhash.LocationID, fence uint64, periods []record.PeriodID, strategy SplitStrategy) (*PointResult, bool) {
	e, ok := c.probe(estKindPoint, strategy, 0, loc, 0, fence, 0, periods)
	if !ok {
		return nil, false
	}
	out := e.point
	return &out, true
}

// ProbePointToPoint is ProbePoint for PointToPoint.
func (c *EstCache) ProbePointToPoint(locL, locLPrime vhash.LocationID, fenceL, fenceLP uint64, periods []record.PeriodID, s int) (*PointToPointResult, bool) {
	e, ok := c.probe(estKindP2P, 0, s, locL, locLPrime, fenceL, fenceLP, periods)
	if !ok {
		return nil, false
	}
	out := e.p2p
	return &out, true
}

// ProbeVolume is ProbePoint for Volume.
func (c *EstCache) ProbeVolume(loc vhash.LocationID, fence uint64, p record.PeriodID) (float64, bool) {
	e, ok := c.probe(estKindVolume, 0, 0, loc, 0, fence, 0, []record.PeriodID{p})
	return e.volume, ok
}

// Volume is EstimateVolume memoized under (location, fence, period).
// fence must be the one the store returned atomically with rec
// (store.Store.Collect).
func (c *EstCache) Volume(fence uint64, rec *record.Record) (float64, error) {
	if c == nil {
		return EstimateVolume(rec)
	}
	periods := []record.PeriodID{rec.Period}
	key := makeKey(estKindVolume, 0, 0, rec.Location, 0, fence, 0, periods)
	if e, ok := c.lookup(key, periods); ok {
		return e.volume, nil
	}
	c.countMiss()
	v, err := EstimateVolume(rec)
	if err != nil {
		return 0, err
	}
	c.store(&estEntry{key: key, periods: periods, volume: v})
	return v, nil
}

// Point is EstimatePointOpts memoized under (location, fence, periods,
// strategy). fence must be the one the store returned atomically with
// set's records (store.Store.Collect).
func (c *EstCache) Point(fence uint64, set *record.Set, strategy SplitStrategy) (*PointResult, error) {
	if c == nil {
		return EstimatePointOpts(set, strategy)
	}
	periods := set.Periods()
	key := makeKey(estKindPoint, strategy, 0, set.Location(), 0, fence, 0, periods)
	if e, ok := c.lookup(key, periods); ok {
		out := e.point
		return &out, nil
	}
	c.countMiss()
	res, err := EstimatePointOpts(set, strategy)
	if err != nil {
		// Errors are not cached: they are cheap to rediscover and keeping
		// them out preserves "entry present ⇒ valid result".
		return nil, err
	}
	c.store(&estEntry{key: key, periods: periods, point: *res})
	return res, nil
}

// PointToPoint is EstimatePointToPoint memoized under (both locations,
// both fences, periods, s). The location order is part of the key
// (Eq. 21 is symmetric in the result but the caller's argument order is
// preserved, matching the uncached path exactly). The key holds setL's
// periods only, so sets that do not cover the same periods skip the
// lookup and get EstimatePointToPoint's error.
func (c *EstCache) PointToPoint(fenceL, fenceLP uint64, setL, setLPrime *record.Set, s int) (*PointToPointResult, error) {
	if c == nil {
		return EstimatePointToPoint(setL, setLPrime, s)
	}
	periods := setL.Periods()
	key := makeKey(estKindP2P, 0, s, setL.Location(), setLPrime.Location(), fenceL, fenceLP, periods)
	if record.CheckAligned(setL, setLPrime) == nil {
		if e, ok := c.lookup(key, periods); ok {
			out := e.p2p
			return &out, nil
		}
	}
	c.countMiss()
	res, err := EstimatePointToPoint(setL, setLPrime, s)
	if err != nil {
		return nil, err
	}
	c.store(&estEntry{key: key, periods: periods, p2p: *res})
	return res, nil
}

// NoteInvalidations records that n records were dropped, fencing
// whatever entries named them. Counters only; no entry is touched.
//
//ptm:noalloc
func (c *EstCache) NoteInvalidations(n int) {
	if c != nil && n > 0 {
		c.invalidations.Add(uint64(n))
	}
}

// Len returns the number of live entries.
func (c *EstCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats returns a snapshot of the cache counters.
func (c *EstCache) Stats() EstCacheStats {
	if c == nil {
		return EstCacheStats{}
	}
	c.mu.Lock()
	entries := c.order.Len()
	c.mu.Unlock()
	return EstCacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       entries,
		Capacity:      c.cap,
	}
}
