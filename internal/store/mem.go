package store

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// Mem is the fully-resident store: records live in RAM, sharded by
// location so uploads for different locations (the common case — every
// RSU reports a distinct location) take disjoint locks. It is the hot
// tier of Tiered and the whole store of a -store=mem server. All
// methods are safe for concurrent use; cross-shard operations lock one
// shard at a time, which is per-shard consistent — enough, because
// records are immutable once ingested.
type Mem struct {
	shards []memShard // immutable slice; per-shard state under shard.mu
	mask   uint64     // len(shards)-1; len(shards) is a power of two
}

// memShard is one lock domain.
type memShard struct {
	mu sync.RWMutex
	// byLoc[loc][period] holds this shard's records (the guard covers
	// the inner maps too).
	//ptm:guardedby mu
	byLoc map[vhash.LocationID]map[record.PeriodID]*record.Record
}

// DefaultShards is the shard count used when the caller passes 0.
const DefaultShards = 16

// NewMem creates an empty resident store. nShards must be a power of
// two in [1, 1<<12], or 0 for DefaultShards.
//
//ptm:exclusive constructor: the store is not shared until it returns
func NewMem(nShards int) (*Mem, error) {
	if nShards == 0 {
		nShards = DefaultShards
	}
	if nShards < 1 || nShards > 1<<12 || bits.OnesCount(uint(nShards)) != 1 {
		return nil, fmt.Errorf("store: shard count %d is not a power of two in [1, 4096]", nShards)
	}
	m := &Mem{
		shards: make([]memShard, nShards),
		mask:   uint64(nShards - 1),
	}
	for i := range m.shards {
		m.shards[i].byLoc = make(map[vhash.LocationID]map[record.PeriodID]*record.Record)
	}
	return m, nil
}

// Shards returns the shard count.
func (m *Mem) Shards() int { return len(m.shards) }

// shardFor maps a location to its shard. Location IDs are operator
// assigned and often sequential, so they are mixed through a Fibonacci
// hash and the shard index taken from the high bits.
//
//ptm:noalloc
//ptm:inline
func (m *Mem) shardFor(loc vhash.LocationID) *memShard {
	h := uint64(loc) * 0x9e3779b97f4a7c15
	return &m.shards[(h>>32)&m.mask]
}

// Ingest implements Store.
func (m *Mem) Ingest(rec *record.Record) (int, error) {
	if rec == nil {
		return 0, record.ErrNilBitmap
	}
	if err := rec.Validate(); err != nil {
		return 0, err
	}
	sh := m.shardFor(rec.Location)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	byPeriod, ok := sh.byLoc[rec.Location]
	if !ok {
		byPeriod = make(map[record.PeriodID]*record.Record)
		sh.byLoc[rec.Location] = byPeriod
	}
	if _, dup := byPeriod[rec.Period]; dup {
		return 0, fmt.Errorf("%w: loc=%d period=%d", ErrDuplicate, rec.Location, rec.Period)
	}
	prior := len(byPeriod)
	byPeriod[rec.Period] = rec
	return prior, nil
}

// Contains implements Store.
func (m *Mem) Contains(loc vhash.LocationID, p record.PeriodID) bool {
	sh := m.shardFor(loc)
	sh.mu.RLock()
	_, ok := sh.byLoc[loc][p]
	sh.mu.RUnlock()
	return ok
}

// Lookup implements Store. Records are immutable and heap-resident, so
// the pointer stays valid after the lock is released and unpin is a
// no-op.
func (m *Mem) Lookup(loc vhash.LocationID, p record.PeriodID) (*record.Record, func(), bool) {
	sh := m.shardFor(loc)
	sh.mu.RLock()
	rec, ok := sh.byLoc[loc][p]
	sh.mu.RUnlock()
	return rec, noopUnpin, ok
}

// Collect implements Store: all requested records, read under one lock
// hold. The uint64 result is always 0 (see Store.Collect).
func (m *Mem) Collect(loc vhash.LocationID, periods []record.PeriodID) ([]*record.Record, uint64, func(), error) {
	recs, missing := m.collectPartial(loc, periods)
	if missing >= 0 {
		return nil, 0, nil, notFound(loc, periods[missing])
	}
	return recs, 0, noopUnpin, nil
}

// collectPartial fetches whichever requested periods are present under
// a single shard lock hold. Absent periods leave nil holes; missing is
// the index of the first hole, or -1 when the set is complete. Tiered
// fills the holes from its cold index — the two-tier Collect.
func (m *Mem) collectPartial(loc vhash.LocationID, periods []record.PeriodID) (recs []*record.Record, missing int) {
	missing = -1
	recs = make([]*record.Record, len(periods))
	sh := m.shardFor(loc)
	sh.mu.RLock()
	byPeriod := sh.byLoc[loc]
	for i, p := range periods {
		rec, ok := byPeriod[p]
		if !ok {
			if missing < 0 {
				missing = i
			}
			continue
		}
		recs[i] = rec
	}
	sh.mu.RUnlock()
	return recs, missing
}

// Remove deletes the record stored for (loc, p): the freeze path moves
// records to the cold tier.
func (m *Mem) Remove(loc vhash.LocationID, p record.PeriodID) {
	sh := m.shardFor(loc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	byPeriod := sh.byLoc[loc]
	delete(byPeriod, p)
	if len(byPeriod) == 0 {
		delete(sh.byLoc, loc)
	}
}

// Locations implements Store.
func (m *Mem) Locations() []vhash.LocationID {
	var out []vhash.LocationID
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for loc := range sh.byLoc {
			out = append(out, loc)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Periods implements Store.
func (m *Mem) Periods(loc vhash.LocationID) []record.PeriodID {
	sh := m.shardFor(loc)
	sh.mu.RLock()
	byPeriod := sh.byLoc[loc]
	out := make([]record.PeriodID, 0, len(byPeriod))
	for p := range byPeriod {
		out = append(out, p)
	}
	sh.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sorted implements Store. Resident records are immutable, so the
// sorted list is a snapshot and no lock is held while fn runs.
func (m *Mem) Sorted(fn func(recs []*record.Record) error) error {
	recs := m.appendAll(nil)
	sortRecords(recs)
	return fn(recs)
}

// appendAll appends every resident record to dst, shard by shard.
func (m *Mem) appendAll(dst []*record.Record) []*record.Record {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, byPeriod := range sh.byLoc {
			for _, rec := range byPeriod {
				dst = append(dst, rec)
			}
		}
		sh.mu.RUnlock()
	}
	return dst
}

// sortRecords orders records by (location, period): segment order.
func sortRecords(recs []*record.Record) {
	sort.Slice(recs, func(i, j int) bool {
		if recs[i].Location != recs[j].Location {
			return recs[i].Location < recs[j].Location
		}
		return recs[i].Period < recs[j].Period
	})
}

// Stats implements Store.
func (m *Mem) Stats() Stats {
	var st Stats
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		st.Locations += len(sh.byLoc)
		for _, byPeriod := range sh.byLoc {
			st.Records += len(byPeriod)
			for _, rec := range byPeriod {
				st.Bits += int64(rec.Size())
			}
		}
		sh.mu.RUnlock()
	}
	st.HotRecords = st.Records
	st.HotBits = st.Bits
	return st
}

// Close implements Store; the resident store holds no OS resources.
func (m *Mem) Close() error { return nil }
