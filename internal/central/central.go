// Package central implements the central server of Section II-A: it
// collects the traffic records uploaded by all RSUs at period end, stores
// them by (location, period), and answers the authority's queries — plain
// per-period volume (Eq. 1), point persistent traffic (Eq. 12), and
// point-to-point persistent traffic (Eq. 21). Because records are
// privacy-preserving bitmaps, the server never holds per-vehicle data.
//
// # Storage
//
// The server runs on a store.Store: fully resident (store.Mem, the
// default), tiered with an out-of-core cold tier of mapped checkpoint
// segments (store.Tiered), or read-only over a segment directory
// (store.Mmap). The query plane is tier-oblivious — a record served off
// a mapped segment page is bit-identical to a resident one, so every
// estimate is too (proven by the differential tests in store). Cold
// reads hand out records that view mapped pages; the server holds their
// pins exactly for the duration of the estimator call.
//
// All methods are safe for concurrent use; consistency guarantees (the
// record-set snapshot whose fence keys the estimate cache) are the
// store's contract.
//
// # Query path
//
// Volume, point and point-to-point queries first read each location's
// fence for the named periods from the store's index (store.Store.Fence)
// and probe the estimate cache with it. A hit is answered without
// reading a bitmap; only a miss collects the records, computes, and
// fills the cache under the fence Collect returned with them.
package central

import (
	"errors"
	"fmt"
	"io"

	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/vhash"
)

// Errors. ErrDuplicate and ErrNotFound alias the store's sentinels so
// transport handlers and WAL replay match them with errors.Is no matter
// which tier produced them.
var (
	ErrDuplicate = store.ErrDuplicate
	ErrNotFound  = store.ErrNotFound
	ErrNoPeriods = errors.New("central: query names no periods")
)

// DefaultShards is the resident store's shard count used by NewServer:
// enough that a city's worth of RSUs uploading at period end rarely
// collide on a lock, small enough that cross-shard iteration stays cheap.
const DefaultShards = store.DefaultShards

// Server is the record store and query engine. The zero value is not
// usable; construct with NewServer or NewServerWithStore.
type Server struct {
	st store.Store
	s  int // system-wide representative-bit count, needed by Eq. (21)

	// cache memoizes estimator results keyed by record-set identity,
	// (location, fence, periods). Set at construction (SetEstimateCache
	// reconfigures it for tests and benchmarks); nil disables caching —
	// every query computes.
	cache *core.EstCache
}

// NewServer creates an empty resident server configured with the
// system-wide representative-bit parameter s (Section II-D) and
// DefaultShards lock shards.
func NewServer(s int) (*Server, error) {
	st, err := store.NewMem(DefaultShards)
	if err != nil {
		return nil, err
	}
	return NewServerWithStore(s, st)
}

// NewServerWithStore wraps an existing store — how centrald mounts the
// tiered and read-only mmap stores. The server takes over the store's
// lifecycle (CloseStore).
//
//ptm:exclusive constructor: the Server is not shared until it returns
func NewServerWithStore(s int, st store.Store) (*Server, error) {
	if s < vhash.MinS || s > vhash.MaxS {
		return nil, fmt.Errorf("central: %w", vhash.ErrInvalidS)
	}
	if st == nil {
		return nil, errors.New("central: nil store")
	}
	return &Server{
		st:    st,
		s:     s,
		cache: core.NewEstCache(core.DefaultEstCacheEntries),
	}, nil
}

// SetEstimateCache replaces the server's estimate cache with one bounded
// to capacity entries (capacity <= 0 disables caching). Counters restart
// from zero. Not synchronized with in-flight queries: call it during
// setup, before the server is shared.
//
//ptm:exclusive configuration: callers reconfigure before serving
func (s *Server) SetEstimateCache(capacity int) {
	s.cache = core.NewEstCache(capacity)
}

// EstCacheStats returns a snapshot of the estimate cache's counters
// (zeros when caching is disabled).
func (s *Server) EstCacheStats() core.EstCacheStats {
	return s.cache.Stats()
}

// S returns the configured representative-bit count.
func (s *Server) S() int { return s.s }

// Store returns the underlying record store (for stats surfaces that
// need store-specific interfaces, e.g. the block-cache counters).
func (s *Server) Store() store.Store { return s.st }

// CloseStore releases the store's OS resources (mappings, files). The
// server must not be used afterwards.
func (s *Server) CloseStore() error { return s.st.Close() }

// Ingest stores one uploaded record. Duplicate (location, period) pairs
// are rejected: an RSU reports each period exactly once, so a duplicate
// indicates a replay or a misconfigured deployment.
//
// An ingest fences no cached estimate: a live entry names only records
// that are still stored, so the new record is in none of them.
func (s *Server) Ingest(rec *record.Record) error {
	_, err := s.st.Ingest(rec)
	return err
}

// Locations returns all locations with stored records, sorted.
func (s *Server) Locations() []vhash.LocationID { return s.st.Locations() }

// Periods returns the sorted periods stored for a location.
func (s *Server) Periods(loc vhash.LocationID) []record.PeriodID { return s.st.Periods(loc) }

// RecordBlobs returns the marshaled form of loc's records at periods,
// in the order named, read through one Collect. A missing period fails
// the call with ErrNotFound. Cold-tier records are pinned only for the
// duration of the marshal — the returned blobs are heap copies, safe to
// hold and send. The cluster subsystem uses this to answer a router's
// record fetch and, with every stored period, for a full-state resync
// when a follower's WAL watermark predates checkpoint compaction.
func (s *Server) RecordBlobs(loc vhash.LocationID, periods []record.PeriodID) ([][]byte, error) {
	if len(periods) == 0 {
		return nil, ErrNoPeriods
	}
	recs, _, unpin, err := s.st.Collect(loc, periods)
	if err != nil {
		return nil, err
	}
	defer unpin()
	blobs := make([][]byte, len(recs))
	for i, rec := range recs {
		blob, err := rec.MarshalBinary()
		if err != nil {
			return nil, err
		}
		blobs[i] = blob
	}
	return blobs, nil
}

// get assembles the record set Π for (loc, periods) together with its
// fence; the store reads the pair atomically, which is what makes the
// fence a sound cache key. The caller must call unpin
// after its last use of the set — cold-tier records view mapped pages
// that stay valid only while pinned.
func (s *Server) get(loc vhash.LocationID, periods []record.PeriodID) (*record.Set, uint64, func(), error) {
	if len(periods) == 0 {
		return nil, 0, nil, ErrNoPeriods
	}
	recs, fence, unpin, err := s.st.Collect(loc, periods)
	if err != nil {
		return nil, 0, nil, err
	}
	set, err := record.NewSet(recs)
	if err != nil {
		unpin()
		return nil, 0, nil, err
	}
	return set, fence, unpin, nil
}

// fence returns the fence of loc's records for periods from the store's
// index, so the estimate cache can be probed before anything is
// collected. ok is false when there is no cache or the index rejects the
// request; the collect path then reports the error exactly as an
// uncached server would.
func (s *Server) fence(loc vhash.LocationID, periods []record.PeriodID) (fence uint64, ok bool) {
	if s.cache == nil {
		return 0, false
	}
	fence, err := s.st.Fence(loc, periods)
	return fence, err == nil
}

// Volume estimates the plain traffic volume at loc in one period (Eq. 1),
// served from the estimate cache like PointPersistent.
func (s *Server) Volume(loc vhash.LocationID, p record.PeriodID) (float64, error) {
	periods := []record.PeriodID{p}
	if fence, ok := s.fence(loc, periods); ok {
		if v, ok := s.cache.ProbeVolume(loc, fence, p); ok {
			return v, nil
		}
	}
	recs, fence, unpin, err := s.st.Collect(loc, periods)
	if err != nil {
		return 0, err
	}
	defer unpin()
	return s.cache.Volume(fence, recs[0])
}

// PointPersistent estimates the point persistent traffic at loc over the
// given periods (Eq. 12). Results are served from the estimate cache
// while the named records are the ones they were computed from; a hit
// is bit-identical to the cold computation.
func (s *Server) PointPersistent(loc vhash.LocationID, periods []record.PeriodID) (*core.PointResult, error) {
	if fence, ok := s.fence(loc, periods); ok {
		if res, ok := s.cache.ProbePoint(loc, fence, periods, core.SplitHalves); ok {
			return res, nil
		}
	}
	set, fence, unpin, err := s.get(loc, periods)
	if err != nil {
		return nil, err
	}
	defer unpin()
	return s.cache.Point(fence, set, core.SplitHalves)
}

// WindowResult is one sliding-window persistent estimate.
type WindowResult struct {
	// Periods are the window's measurement periods, in order.
	Periods []record.PeriodID
	// Estimate is the persistent volume over exactly those periods.
	Estimate float64
}

// PointPersistentSliding estimates the point persistent traffic over
// every window of `window` consecutive stored periods at loc — e.g. the
// week-over-week stability series the paper's introduction motivates
// ("over the workdays of a week, over the Saturdays of several weeks").
// window must be >= 2; there must be at least `window` stored periods.
func (s *Server) PointPersistentSliding(loc vhash.LocationID, window int) ([]WindowResult, error) {
	if window < 2 {
		return nil, fmt.Errorf("central: window must be >= 2, got %d", window)
	}
	periods := s.Periods(loc)
	if len(periods) < window {
		return nil, fmt.Errorf("%w: %d periods stored at loc %d, window %d", ErrNotFound, len(periods), loc, window)
	}
	out := make([]WindowResult, 0, len(periods)-window+1)
	for i := 0; i+window <= len(periods); i++ {
		ps := periods[i : i+window]
		res, err := s.PointPersistent(loc, ps)
		if err != nil {
			return nil, fmt.Errorf("central: window %v: %w", ps, err)
		}
		win := WindowResult{Periods: append([]record.PeriodID{}, ps...), Estimate: res.Estimate}
		out = append(out, win)
	}
	return out, nil
}

// PointToPointPersistent estimates the point-to-point persistent traffic
// between locA and locB over the given periods (Eq. 21).
func (s *Server) PointToPointPersistent(locA, locB vhash.LocationID, periods []record.PeriodID) (*core.PointToPointResult, error) {
	if fenceA, ok := s.fence(locA, periods); ok {
		if fenceB, ok := s.fence(locB, periods); ok {
			if res, ok := s.cache.ProbePointToPoint(locA, locB, fenceA, fenceB, periods, s.s); ok {
				return res, nil
			}
		}
	}
	setA, fenceA, unpinA, err := s.get(locA, periods)
	if err != nil {
		return nil, err
	}
	defer unpinA()
	setB, fenceB, unpinB, err := s.get(locB, periods)
	if err != nil {
		return nil, err
	}
	defer unpinB()
	return s.cache.PointToPoint(fenceA, fenceB, setA, setB, s.s)
}

// ODVolume estimates the single-period point-to-point volume between two
// locations: the number of vehicles that passed both during period p.
func (s *Server) ODVolume(locA, locB vhash.LocationID, p record.PeriodID) (float64, error) {
	recA, unpinA, okA := s.st.Lookup(locA, p)
	if !okA {
		return 0, fmt.Errorf("%w: loc=%d period=%d", ErrNotFound, locA, p)
	}
	defer unpinA()
	recB, unpinB, okB := s.st.Lookup(locB, p)
	if !okB {
		return 0, fmt.Errorf("%w: loc=%d period=%d", ErrNotFound, locB, p)
	}
	defer unpinB()
	res, err := core.EstimateODVolume(recA, recB, s.s)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// SaveTo writes every stored record to w as one store segment
// (store.WriteSegment), sorted by (location, period), so the bytes do
// not depend on shard count, tiering state, or map iteration order. It
// is the one on-disk form of a record set: a WAL checkpoint, a centrald
// -save file and a cold-tier segment all open with store.OpenSegment.
func (s *Server) SaveTo(w io.Writer) error {
	return s.st.Sorted(func(recs []*record.Record) error {
		return store.WriteSegment(w, recs)
	})
}

// LoadFrom restores the records of the segment file at path: a SaveTo
// file, a WAL checkpoint, or a cold-tier segment. The file is mapped,
// not read onto the heap; records already present (for example ones a
// tiered store holds cold) are skipped before their words are read, and
// every other record is CRC-verified and copied in. Restore is therefore
// idempotent, which is what lets a tiered store recover from a WAL
// checkpoint that includes its own frozen records.
func (s *Server) LoadFrom(path string) error {
	return store.ReadSegment(path, s.st.Contains, func(rec *record.Record) error {
		if err := s.Ingest(rec); err != nil && !errors.Is(err, ErrDuplicate) {
			return fmt.Errorf("central: restoring record loc=%d period=%d: %w", rec.Location, rec.Period, err)
		}
		return nil
	})
}
