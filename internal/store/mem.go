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
	// byLoc[loc][period] holds this shard's records with their
	// sequence numbers (the guard covers the inner maps too).
	//ptm:guardedby mu
	byLoc map[vhash.LocationID]map[record.PeriodID]memEntry
	// seq[loc] is the last sequence number issued at loc: every record
	// admitted there (an ingest, or a cold entry indexed at open) takes
	// the next one. The counter is never reset or deleted, not even when
	// retention empties the location, so no number is issued twice and
	// the maximum over a window's records names that record set — the
	// estimate cache's fence (DESIGN.md §13). A freeze carries a record's
	// number into the cold index with it: a move is not a new record.
	//ptm:guardedby mu
	seq map[vhash.LocationID]uint64
}

// memEntry is one resident record and the sequence number it was
// admitted with.
type memEntry struct {
	rec *record.Record
	seq uint64
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
		m.shards[i].byLoc = make(map[vhash.LocationID]map[record.PeriodID]memEntry)
		m.shards[i].seq = make(map[vhash.LocationID]uint64)
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
		byPeriod = make(map[record.PeriodID]memEntry)
		sh.byLoc[rec.Location] = byPeriod
	}
	if _, dup := byPeriod[rec.Period]; dup {
		return 0, fmt.Errorf("%w: loc=%d period=%d", ErrDuplicate, rec.Location, rec.Period)
	}
	prior := len(byPeriod)
	byPeriod[rec.Period] = memEntry{rec: rec, seq: sh.nextSeqLocked(rec.Location)}
	return prior, nil
}

// nextSeqLocked issues loc's next sequence number. Caller holds sh.mu.
func (sh *memShard) nextSeqLocked(loc vhash.LocationID) uint64 {
	sh.seq[loc]++
	return sh.seq[loc]
}

// nextSeq issues loc's next sequence number for a record admitted
// outside the resident tier (a cold entry indexed at open).
func (m *Mem) nextSeq(loc vhash.LocationID) uint64 {
	sh := m.shardFor(loc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.nextSeqLocked(loc)
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
	e, ok := sh.byLoc[loc][p]
	sh.mu.RUnlock()
	return e.rec, noopUnpin, ok
}

// Collect implements Store: all requested records plus the highest
// sequence number among them, read under one lock hold.
func (m *Mem) Collect(loc vhash.LocationID, periods []record.PeriodID) ([]*record.Record, uint64, func(), error) {
	recs, fence, missing := m.collectPartial(loc, periods)
	if missing >= 0 {
		return nil, 0, nil, notFound(loc, periods[missing])
	}
	return recs, fence, noopUnpin, nil
}

// Fence implements Store: the same single shard lock hold as Collect.
func (m *Mem) Fence(loc vhash.LocationID, periods []record.PeriodID) (uint64, error) {
	_, fence, missing := m.collectPartial(loc, periods)
	if missing >= 0 {
		return 0, notFound(loc, periods[missing])
	}
	return fence, nil
}

// collectPartial fetches whichever requested periods are present, and
// the highest sequence number among them, under a single shard lock
// hold. Absent periods leave nil holes; missing is the index of the
// first hole, or -1 when the set is complete. Tiered fills the holes
// (and their sequence numbers) from its cold index under its own
// tiering lock — the two-tier Collect.
func (m *Mem) collectPartial(loc vhash.LocationID, periods []record.PeriodID) (recs []*record.Record, fence uint64, missing int) {
	missing = -1
	recs = make([]*record.Record, len(periods))
	sh := m.shardFor(loc)
	sh.mu.RLock()
	byPeriod := sh.byLoc[loc]
	for i, p := range periods {
		e, ok := byPeriod[p]
		if !ok {
			if missing < 0 {
				missing = i
			}
			continue
		}
		recs[i] = e.rec
		fence = max(fence, e.seq)
	}
	sh.mu.RUnlock()
	return recs, fence, missing
}

// Remove deletes rec if it is still the stored record for its (location,
// period) and hands back its sequence number: the freeze path moves
// records to the cold tier, and a move keeps the number, so cached
// estimates stay valid (the bits do not change). ok false means
// retention dropped rec, and perhaps a re-ingest replaced it, since the
// freeze picked it.
func (m *Mem) Remove(rec *record.Record) (seq uint64, ok bool) {
	sh := m.shardFor(rec.Location)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	byPeriod := sh.byLoc[rec.Location]
	e := byPeriod[rec.Period]
	if e.rec != rec {
		return 0, false
	}
	delete(byPeriod, rec.Period)
	if len(byPeriod) == 0 {
		delete(sh.byLoc, rec.Location)
	}
	return e.seq, true
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

// DropBefore implements Store. Shards are pruned one at a time, so
// uploads racing the prune land before or after their location's shard
// is visited, never mid-scan.
func (m *Mem) DropBefore(cutoff record.PeriodID) (int, error) {
	dropped, _ := m.dropBefore(cutoff)
	return dropped, nil
}

// dropBefore prunes and additionally reports the dropped payload bits,
// which the tiered store needs to keep its freeze trigger exact.
func (m *Mem) dropBefore(cutoff record.PeriodID) (dropped int, bits int64) {
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for loc, byPeriod := range sh.byLoc {
			for p, e := range byPeriod {
				if p < cutoff {
					delete(byPeriod, p)
					dropped++
					bits += int64(e.rec.Size())
				}
			}
			if len(byPeriod) == 0 {
				delete(sh.byLoc, loc)
			}
		}
		sh.mu.Unlock()
	}
	return dropped, bits
}

// RetainLatest implements Store.
func (m *Mem) RetainLatest(loc vhash.LocationID, n int) (int, error) {
	periods := m.Periods(loc)
	if len(periods) <= n {
		return 0, nil
	}
	dropped, _ := m.dropAt(loc, retainCut(periods, n))
	return dropped, nil
}

// dropAt prunes one location below an exclusive cutoff, reporting the
// dropped payload bits.
func (m *Mem) dropAt(loc vhash.LocationID, cut record.PeriodID) (dropped int, bits int64) {
	sh := m.shardFor(loc)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	byPeriod := sh.byLoc[loc]
	for p, e := range byPeriod {
		if p < cut {
			delete(byPeriod, p)
			dropped++
			bits += int64(e.rec.Size())
		}
	}
	if len(byPeriod) == 0 {
		delete(sh.byLoc, loc)
	}
	return dropped, bits
}

// retainCut turns "keep the newest n of these sorted periods" into an
// exclusive cutoff. n <= 0 cuts above the newest period (drop all).
func retainCut(sorted []record.PeriodID, n int) record.PeriodID {
	if n > 0 {
		return sorted[len(sorted)-n]
	}
	return sorted[len(sorted)-1] + 1
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
			for _, e := range byPeriod {
				dst = append(dst, e.rec)
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
			for _, e := range byPeriod {
				st.Bits += int64(e.rec.Size())
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
