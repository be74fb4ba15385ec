package store

// The block cache: the bounded window through which the query plane
// reads cold records. A "span" is one record's word range inside a
// mapped segment. Admission verifies the record's CRC (first touch
// streams the bytes anyway), hands out the zero-copy word view, and
// accounts the span's bytes against the cache budget; eviction picks
// the least-recently-used unpinned span and releases its backing pages
// with madvise, so the process's resident set tracks the budget rather
// than the data set.
//
// Pin protocol: Get returns the span's words together with an unpin
// function. The words stay valid — never evicted, never unmapped —
// until unpin is called; unpin must be called exactly once. Pinned
// spans are skipped by the evictor, so a join streaming a cold record
// can never have its operand dropped mid-scan. Loads happen outside
// the cache lock; concurrent Gets for the same span share one load.

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultCacheBytes bounds the block cache when the operator does not
// set -resident-budget or PTM_BLOCKCACHE_BYTES: 256 MiB, enough to keep
// a dashboard's working set of cold records resident.
const DefaultCacheBytes = 256 << 20

// CacheStats is a snapshot of one cache's counters.
type CacheStats struct {
	Hits, Misses, Evictions uint64
	// AdviseErrors counts failed page-release hints; evictions still
	// complete (the hint is a perf matter, never correctness).
	AdviseErrors uint64
	// PinnedBytes is the payload currently pinned by in-flight readers.
	PinnedBytes int64
	// CachedBytes is the payload currently admitted (pinned included).
	CachedBytes int64
	// CapacityBytes is the configured budget.
	CapacityBytes int64
	Spans         int
}

// spanKey identifies one record's words inside one segment.
type spanKey struct {
	seg uint64
	idx int
}

// span is one cached record view.
type span struct {
	key   spanKey
	words []uint64
	bytes int64
	// evict releases the span's backing pages; nil when the platform
	// cannot.
	evict func() error

	// ready is closed when the load completes (err set on failure);
	// concurrent Gets for a loading span wait on it outside the lock.
	ready chan struct{}
	err   error

	// pins, removed, and elem are owned by the BlockCache and only
	// touched with BlockCache.mu held.
	pins    int
	removed bool
	elem    *list.Element
}

// BlockCache is the bounded LRU of cold-record spans. All methods are
// safe for concurrent use.
type BlockCache struct {
	capacity int64

	mu sync.Mutex
	//ptm:guardedby mu
	spans map[spanKey]*span
	//ptm:guardedby mu
	lru *list.List // front = most recently used; Values are *span
	//ptm:guardedby mu
	bytes int64
	//ptm:guardedby mu
	pinned int64

	hits       atomic.Uint64
	misses     atomic.Uint64
	evictions  atomic.Uint64
	adviseErrs atomic.Uint64
}

// NewBlockCache creates a cache bounded to capacity bytes (capacity <= 0
// selects DefaultCacheBytes). The budget bounds unpinned residency;
// pinned spans can push past it transiently, by exactly the working set
// of in-flight queries.
func NewBlockCache(capacity int64) *BlockCache {
	if capacity <= 0 {
		capacity = DefaultCacheBytes
	}
	return &BlockCache{
		capacity: capacity,
		spans:    make(map[spanKey]*span),
		lru:      list.New(),
	}
}

// Get returns the span's words, loading (and CRC-verifying) them on
// first touch via load, pinned until the returned unpin runs. load is
// called without the cache lock held; racing Gets share a single load.
func (c *BlockCache) Get(key spanKey, load func() (words []uint64, nbytes int64, evict func() error, err error)) ([]uint64, func(), error) {
	c.mu.Lock()
	if sp, ok := c.spans[key]; ok {
		sp.pins++
		if sp.pins == 1 && sp.elem != nil {
			c.pinned += sp.bytes
		}
		if sp.elem != nil {
			c.lru.MoveToFront(sp.elem)
		}
		c.mu.Unlock()
		<-sp.ready
		if sp.err != nil {
			// The shared load failed; our pin died with the span.
			return nil, nil, sp.err
		}
		c.hits.Add(1)
		return sp.words, c.unpinFunc(sp), nil
	}
	sp := &span{key: key, ready: make(chan struct{}), pins: 1}
	c.spans[key] = sp
	c.mu.Unlock()

	c.misses.Add(1)
	words, nbytes, evict, err := load()

	c.mu.Lock()
	if err != nil {
		sp.err = err
		if !sp.removed {
			delete(c.spans, key)
		}
		close(sp.ready)
		c.mu.Unlock()
		return nil, nil, err
	}
	sp.words, sp.bytes, sp.evict = words, nbytes, evict
	if !sp.removed {
		// pins >= 1 (ours), so the span enters accounted-and-pinned.
		c.bytes += nbytes
		c.pinned += nbytes
		sp.elem = c.lru.PushFront(sp)
		c.evictLocked()
	}
	close(sp.ready)
	c.mu.Unlock()
	return words, c.unpinFunc(sp), nil
}

// unpinFunc builds the single-use release for one pin of sp.
func (c *BlockCache) unpinFunc(sp *span) func() {
	return func() {
		c.mu.Lock()
		sp.pins--
		if sp.pins == 0 && sp.elem != nil {
			c.pinned -= sp.bytes
			c.evictLocked()
		}
		c.mu.Unlock()
	}
}

// evictLocked sheds least-recently-used unpinned spans until the
// accounted bytes fit the budget. Pinned spans are skipped — their
// readers are mid-stream.
func (c *BlockCache) evictLocked() {
	for e := c.lru.Back(); e != nil && c.bytes > c.capacity; {
		prev := e.Prev()
		sp := e.Value.(*span)
		if sp.pins == 0 {
			c.dropLocked(sp)
			c.evictions.Add(1)
			if sp.evict != nil {
				if err := sp.evict(); err != nil {
					c.adviseErrs.Add(1)
				}
			}
		}
		e = prev
	}
}

// dropLocked removes sp from the map, LRU, and byte accounting.
func (c *BlockCache) dropLocked(sp *span) {
	delete(c.spans, sp.key)
	c.lru.Remove(sp.elem)
	sp.elem = nil
	sp.removed = true
	c.bytes -= sp.bytes
}

// InvalidateSegment drops every span of the given segment — retention
// deleting a whole segment file. Pinned spans are dropped from the
// cache but their readers keep streaming safely: the words view lives
// until the segment's own pin count drains the munmap. No madvise is
// issued; the segment unmap releases everything at once.
func (c *BlockCache) InvalidateSegment(seg uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, sp := range c.spans {
		if key.seg != seg {
			continue
		}
		if sp.elem == nil {
			// Still loading: mark removed; the loader skips admission.
			sp.removed = true
			delete(c.spans, key)
			continue
		}
		if sp.pins > 0 {
			c.pinned -= sp.bytes
		}
		c.dropLocked(sp)
	}
}

// Stats returns a snapshot of the cache counters.
func (c *BlockCache) Stats() CacheStats {
	c.mu.Lock()
	cached, pinned, spans := c.bytes, c.pinned, c.lru.Len()
	c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		AdviseErrors:  c.adviseErrs.Load(),
		PinnedBytes:   pinned,
		CachedBytes:   cached,
		CapacityBytes: c.capacity,
		Spans:         spans,
	}
}
