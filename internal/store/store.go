// Package store provides the record stores behind the central server:
// a resident in-memory store (Mem), a tiered store that freezes cold
// periods into immutable on-disk checkpoint segments and reads them
// back through a bounded block cache of mapped pages (Tiered), and a
// read-only store serving entirely out of mapped segments (Mmap).
//
// All three present the same Store interface, and the estimator plane
// above them is tier-oblivious: a record served from a mapped segment
// is bit-identical to the resident one (the segment format stores
// bitmap words little-endian and 64-byte aligned, so a mapped record
// IS the word slice the join kernels stream over — no unmarshal, no
// copy). The differential tests in tiered_test.go prove snapshots and
// estimates identical across all three implementations.
package store

import (
	"errors"
	"fmt"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// Errors. The central server aliases ErrDuplicate/ErrNotFound so the
// WAL replay and transport layers match them with errors.Is regardless
// of which tier produced them.
var (
	ErrDuplicate = errors.New("store: record for this location and period already stored")
	ErrNotFound  = errors.New("store: no record for requested location/period")
	ErrReadOnly  = errors.New("store: store is read-only")
	ErrClosed    = errors.New("store: store is closed")
)

// Store is the record-store contract the central server runs on.
//
// The store only ever adds records: a successful Ingest of
// (loc, period) fixes that record's bits for the life of the store, and
// no record is ever replaced or dropped (a tier move changes where the
// bits live, not what they are). So once (loc, periods) can be
// collected it names the same record set forever — the identity the
// estimate cache keys results by, with no store call on a hit — and
// queries are tier-oblivious.
//
// Cold-tier reads hand out records whose bitmaps view mapped (or cached)
// pages; the unpin function returned by Lookup and Collect releases
// those pins. Callers must not touch the returned records after calling
// unpin. Resident stores return a no-op unpin, so callers can treat the
// protocol uniformly.
type Store interface {
	// Ingest stores one record, rejecting duplicates with ErrDuplicate.
	// On success, prior reports how many records the location already
	// held (across all tiers) when the record was admitted.
	Ingest(rec *record.Record) (prior int, err error)

	// Contains reports whether a record for (loc, p) is stored, in any
	// tier, without materializing it (no cold-tier I/O, no pins).
	Contains(loc vhash.LocationID, p record.PeriodID) bool

	// Lookup fetches one record. When ok, the caller must call unpin
	// (exactly once) after its last use of rec.
	Lookup(loc vhash.LocationID, p record.PeriodID) (rec *record.Record, unpin func(), ok bool)

	// Collect fetches the records for every requested period. Any
	// missing period fails the whole call with ErrNotFound (wrapped). On
	// success the caller must call unpin (exactly once) after its last
	// use of recs. The uint64 result is always 0: it stays only because
	// bench/ptmload, whose source the benchmark comparison pins,
	// implements this signature in its store decorator.
	Collect(loc vhash.LocationID, periods []record.PeriodID) (recs []*record.Record, zero uint64, unpin func(), err error)

	// Locations returns all locations with stored records, sorted.
	Locations() []vhash.LocationID

	// Periods returns the sorted periods stored for a location.
	Periods(loc vhash.LocationID) []record.PeriodID

	// Sorted calls fn once with every stored record in (location,
	// period) order — the one input store.WriteSegment needs to write
	// the whole store as a segment. Cold records are CRC-verified views
	// of mapped pages, and the store's read lock is held until fn
	// returns, so fn must not retain the records or mutate the store.
	Sorted(fn func(recs []*record.Record) error) error

	// Stats returns a snapshot of store-level counters.
	Stats() Stats

	// Close releases OS resources (mappings, file handles). The store
	// must not be used afterwards.
	Close() error
}

// Stats summarizes a store's contents by tier. For a resident store the
// cold fields are zero.
type Stats struct {
	Locations int
	Records   int
	// Bits is the total bitmap payload held, in bits, across tiers.
	Bits int64

	// HotRecords/HotBits count the resident tier.
	HotRecords int
	HotBits    int64
	// ColdRecords/ColdBits count records living in on-disk segments.
	ColdRecords int
	ColdBits    int64
	// Segments is the number of live segment files.
	Segments int
}

// CacheStatser is implemented by stores with a cold-tier block cache;
// the /stats endpoint surfaces these counters when present.
type CacheStatser interface {
	CacheStats() CacheStats
}

// noopUnpin is the shared unpin for resident records.
func noopUnpin() {}

// notFound is the error every tier returns for a missing (loc, p).
func notFound(loc vhash.LocationID, p record.PeriodID) error {
	return fmt.Errorf("%w: loc=%d period=%d", ErrNotFound, loc, p)
}
