package store

import (
	"fmt"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// Mmap is the read-only store: every record is served from mapped
// checkpoint segments through the block cache, nothing is resident
// beyond the cache budget. It is the analysis-server mode — point
// centrald at a directory of frozen segments (or a copy of a tiered
// store's cold directory) and query a data set far larger than RAM.
//
// Mutations (Ingest, DropBefore, RetainLatest) fail with ErrReadOnly.
// Each record's sequence number is issued once, when the segment is
// indexed at open; nothing ever ingests, so no fence ever moves.
type Mmap struct {
	t *Tiered
}

// OpenMmap opens a segment directory read-only. cacheBytes bounds the
// block cache (<= 0 selects DefaultCacheBytes).
func OpenMmap(dir string, cacheBytes int64) (*Mmap, error) {
	t, err := OpenTiered(dir, TieredOptions{Shards: 1, CacheBytes: cacheBytes})
	if err != nil {
		return nil, err
	}
	if st := t.Stats(); st.HotRecords != 0 {
		//ptmlint:allow errdrop -- the shape error is what the caller sees
		_ = t.Close()
		return nil, fmt.Errorf("store: %s holds hot-tier state; not a pure segment directory", dir)
	}
	return &Mmap{t: t}, nil
}

// Ingest implements Store (always ErrReadOnly).
func (s *Mmap) Ingest(*record.Record) (int, error) { return 0, ErrReadOnly }

// Contains implements Store.
func (s *Mmap) Contains(loc vhash.LocationID, p record.PeriodID) bool {
	return s.t.Contains(loc, p)
}

// DropBefore implements Store (always ErrReadOnly).
func (s *Mmap) DropBefore(record.PeriodID) (int, error) { return 0, ErrReadOnly }

// RetainLatest implements Store (always ErrReadOnly).
func (s *Mmap) RetainLatest(vhash.LocationID, int) (int, error) { return 0, ErrReadOnly }

// Lookup implements Store.
func (s *Mmap) Lookup(loc vhash.LocationID, p record.PeriodID) (*record.Record, func(), bool) {
	return s.t.Lookup(loc, p)
}

// Collect implements Store.
func (s *Mmap) Collect(loc vhash.LocationID, periods []record.PeriodID) ([]*record.Record, uint64, func(), error) {
	return s.t.Collect(loc, periods)
}

// Fence implements Store.
func (s *Mmap) Fence(loc vhash.LocationID, periods []record.PeriodID) (uint64, error) {
	return s.t.Fence(loc, periods)
}

// Locations implements Store.
func (s *Mmap) Locations() []vhash.LocationID { return s.t.Locations() }

// Periods implements Store.
func (s *Mmap) Periods(loc vhash.LocationID) []record.PeriodID { return s.t.Periods(loc) }

// Sorted implements Store.
func (s *Mmap) Sorted(fn func(recs []*record.Record) error) error { return s.t.Sorted(fn) }

// Stats implements Store.
func (s *Mmap) Stats() Stats { return s.t.Stats() }

// CacheStats implements CacheStatser.
func (s *Mmap) CacheStats() CacheStats { return s.t.CacheStats() }

// Close implements Store.
func (s *Mmap) Close() error { return s.t.Close() }

// Interface conformance.
var (
	_ Store        = (*Mem)(nil)
	_ Store        = (*Tiered)(nil)
	_ Store        = (*Mmap)(nil)
	_ CacheStatser = (*Tiered)(nil)
	_ CacheStatser = (*Mmap)(nil)
)
