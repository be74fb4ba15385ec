package central

import "fmt"

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
