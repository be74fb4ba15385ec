package central

import (
	"fmt"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// Retention and observability for the record store. Records are small
// (f × volume bits), but a city-scale deployment accumulates
// locations × periods of them indefinitely; the authority prunes what its
// analysis horizon no longer needs. On a tiered store, retention also
// releases disk: a cold segment whose records are all dropped is
// unlinked and its cache spans invalidated.

// DropBefore removes all records older than the cutoff period (exclusive)
// at every location and reports how many were dropped. The error is
// non-nil only for cold-tier stores whose segment files could not be
// deleted — the index entries are gone either way.
//
// Retention is the one event that fences cached estimates (a dropped
// record's windows can only be answered again after a re-ingest, under
// a higher fence), so each dropped record counts one invalidation.
func (s *Server) DropBefore(cutoff record.PeriodID) (int, error) {
	dropped, err := s.st.DropBefore(cutoff)
	s.cache.NoteInvalidations(dropped)
	return dropped, err
}

// RetainLatest keeps only the newest n periods at the given location and
// reports how many records were dropped. n <= 0 drops everything at the
// location. Each dropped record counts one invalidation, as in
// DropBefore.
func (s *Server) RetainLatest(loc vhash.LocationID, n int) (int, error) {
	dropped, err := s.st.RetainLatest(loc, n)
	s.cache.NoteInvalidations(dropped)
	return dropped, err
}

// StoreStats summarizes the store's contents.
type StoreStats struct {
	Locations int
	Records   int
	// Bits is the total bitmap payload held, in bits, across tiers.
	Bits int64
	// HotRecords counts records resident in RAM; ColdRecords counts
	// records served from on-disk segments (zero for resident stores).
	HotRecords  int
	ColdRecords int
	// Segments is the number of live cold segment files.
	Segments int
}

// Stats returns a snapshot of store-level counters. Concurrent uploads
// may land between internal lock holds, so the totals are
// per-shard consistent.
func (s *Server) Stats() StoreStats {
	st := s.st.Stats()
	return StoreStats{
		Locations:   st.Locations,
		Records:     st.Records,
		Bits:        st.Bits,
		HotRecords:  st.HotRecords,
		ColdRecords: st.ColdRecords,
		Segments:    st.Segments,
	}
}

// String renders the stats compactly.
func (st StoreStats) String() string {
	s := fmt.Sprintf("central{locations=%d records=%d payload=%.1fMiB",
		st.Locations, st.Records, float64(st.Bits)/8/(1<<20))
	if st.Segments > 0 {
		s += fmt.Sprintf(" cold=%d segments=%d", st.ColdRecords, st.Segments)
	}
	return s + "}"
}
