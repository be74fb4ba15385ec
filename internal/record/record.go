// Package record defines the traffic record — the only artifact an RSU ever
// exports (Section II-D): a location, a measurement period, and a bitmap in
// which passing vehicles each set one pseudo-random bit. No per-vehicle
// identifying information exists in a record; estimation is purely
// statistical.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"ptm/internal/bitmap"
	"ptm/internal/vhash"
)

// PeriodID numbers measurement periods (e.g. days) monotonically. The
// authority chooses the period length; records only carry the ordinal.
type PeriodID uint32

// Record is one RSU's traffic record for one measurement period.
type Record struct {
	Location vhash.LocationID
	Period   PeriodID
	Bitmap   *bitmap.Bitmap

	// more marks a record decoded from a batch that has records after
	// it. It never leaves the process: the codec neither writes nor
	// reads it.
	more bool
}

// Validation and codec errors.
var (
	ErrNilBitmap  = errors.New("record: nil bitmap")
	ErrCorrupt    = errors.New("record: corrupt serialized data")
	ErrEmptySet   = errors.New("record: empty record set")
	ErrMixedSet   = errors.New("record: records from different locations")
	ErrDupPeriod  = errors.New("record: duplicate period in set")
	ErrPeriodSkew = errors.New("record: period sets differ between locations")
)

// New creates a record with a fresh all-zero bitmap of m bits.
func New(loc vhash.LocationID, period PeriodID, m int) (*Record, error) {
	b, err := bitmap.New(m)
	if err != nil {
		return nil, fmt.Errorf("record: sizing bitmap: %w", err)
	}
	return &Record{Location: loc, Period: period, Bitmap: b}, nil
}

// MarkMore notes that more records of this record's batch follow it.
// Only the code that decoded a batch marks its records, every one but
// the last; a durable store then logs a marked record without waiting
// for a sync and lets the batch's last record wait for one sync that
// covers them all.
func (r *Record) MarkMore() { r.more = true }

// TakeMore reports whether MarkMore marked the record, and clears the
// mark, so a record the store keeps carries none.
func (r *Record) TakeMore() bool {
	more := r.more
	r.more = false
	return more
}

// Validate checks structural invariants.
func (r *Record) Validate() error {
	if r.Bitmap == nil {
		return ErrNilBitmap
	}
	return nil
}

// Size returns the record's bitmap size in bits.
func (r *Record) Size() int { return r.Bitmap.Size() }

// String summarizes the record.
func (r *Record) String() string {
	return fmt.Sprintf("record{loc=%d period=%d %v}", r.Location, r.Period, r.Bitmap)
}

// Serialized layout (little endian):
//
//	magic    uint32 "PTMR"
//	version  uint8  1
//	_        [3]byte
//	location uint64
//	period   uint32
//	blen     uint32  length of the bitmap blob
//	bitmap   blen bytes (bitmap.MarshalBinary, self-checksummed)
const (
	recMagic   = 0x524d5450 // "PTMR" little-endian
	recVersion = 1
	recHeader  = 4 + 1 + 3 + 8 + 4 + 4
)

// MarshalBinary serializes the record for upload to the central server.
//
//ptm:sink record serialization
func (r *Record) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(nil)
}

// AppendBinary appends the MarshalBinary encoding to dst and returns the
// extended slice, reusing dst's capacity. The snapshot writer streams
// every record through one scratch buffer this way, so serializing a
// store costs O(1) allocations instead of one per record.
//
//ptm:sink record serialization
func (r *Record) AppendBinary(dst []byte) ([]byte, error) {
	if err := r.Validate(); err != nil {
		return nil, err
	}
	base := len(dst)
	var hdr [recHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], recMagic)
	hdr[4] = recVersion
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(r.Location))
	binary.LittleEndian.PutUint32(hdr[16:20], uint32(r.Period))
	dst = append(dst, hdr[:]...)
	dst, err := r.Bitmap.AppendBinary(dst)
	if err != nil {
		return nil, fmt.Errorf("record: marshaling bitmap: %w", err)
	}
	blen := len(dst) - base - recHeader
	binary.LittleEndian.PutUint32(dst[base+20:base+24], uint32(blen))
	return dst, nil
}

// Unmarshal parses a record serialized by MarshalBinary.
func Unmarshal(data []byte) (*Record, error) {
	loc, period, err := UnmarshalHeader(data)
	if err != nil {
		return nil, err
	}
	b, err := bitmap.Unmarshal(data[recHeader:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return &Record{Location: loc, Period: period, Bitmap: b}, nil
}

// UnmarshalHeader reads the location and period of a record serialized
// by MarshalBinary without decoding its bitmap. It makes every check
// Unmarshal makes before the bitmap blob (magic, version, reserved
// bytes, total length), with the same errors; the blob's own checksum
// is checked only by Unmarshal.
func UnmarshalHeader(data []byte) (vhash.LocationID, PeriodID, error) {
	if len(data) < recHeader {
		return 0, 0, fmt.Errorf("%w: short buffer (%d bytes)", ErrCorrupt, len(data))
	}
	if binary.LittleEndian.Uint32(data[0:4]) != recMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if data[4] != recVersion {
		return 0, 0, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, data[4])
	}
	if data[5] != 0 || data[6] != 0 || data[7] != 0 {
		return 0, 0, fmt.Errorf("%w: nonzero reserved bytes", ErrCorrupt)
	}
	blen := int(binary.LittleEndian.Uint32(data[20:24]))
	if len(data) != recHeader+blen {
		return 0, 0, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, len(data), recHeader+blen)
	}
	return vhash.LocationID(binary.LittleEndian.Uint64(data[8:16])), PeriodID(binary.LittleEndian.Uint32(data[16:20])), nil
}

// Set is the paper's Π: the records of interest from a single location,
// one per measurement period.
type Set struct {
	loc  vhash.LocationID
	recs []*Record
	bms  []*bitmap.Bitmap // recs' bitmaps in period order, built once
}

// NewSet validates and assembles a record set. All records must share one
// location, have distinct periods, and carry valid bitmaps. The records
// are sorted by period; the paper's Π_a/Π_b split (Section III-B) depends
// on a deterministic order.
func NewSet(recs []*Record) (*Set, error) {
	if len(recs) == 0 {
		return nil, ErrEmptySet
	}
	sorted := make([]*Record, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Period < sorted[j].Period })

	loc := sorted[0].Location
	seen := make(map[PeriodID]bool, len(sorted))
	for _, r := range sorted {
		if err := r.Validate(); err != nil {
			return nil, err
		}
		if r.Location != loc {
			return nil, fmt.Errorf("%w: %d and %d", ErrMixedSet, loc, r.Location)
		}
		if seen[r.Period] {
			return nil, fmt.Errorf("%w: period %d", ErrDupPeriod, r.Period)
		}
		seen[r.Period] = true
	}
	bms := make([]*bitmap.Bitmap, len(sorted))
	for i, r := range sorted {
		bms[i] = r.Bitmap
	}
	return &Set{loc: loc, recs: sorted, bms: bms}, nil
}

// Location returns the common location of the set.
//
//ptm:noalloc
//ptm:inline
func (s *Set) Location() vhash.LocationID { return s.loc }

// Len returns t, the number of measurement periods in the set.
//
//ptm:noalloc
//ptm:inline
func (s *Set) Len() int { return len(s.recs) }

// Periods returns the sorted period IDs.
func (s *Set) Periods() []PeriodID {
	out := make([]PeriodID, len(s.recs))
	for i, r := range s.recs {
		out[i] = r.Period
	}
	return out
}

// Bitmaps returns the records' bitmaps in period order. The slice is the
// set's own (built once at construction so the estimator hot loops stay
// allocation-free); callers must treat both the slice and the bitmaps as
// read-only.
//
//ptm:noalloc
//ptm:inline
func (s *Set) Bitmaps() []*bitmap.Bitmap { return s.bms }

// MaxSize returns m, the largest bitmap size in the set (Section III).
//
//ptm:noalloc
func (s *Set) MaxSize() int {
	m := 0
	for _, r := range s.recs {
		if r.Size() > m {
			m = r.Size()
		}
	}
	return m
}

// CheckAligned verifies that two sets cover exactly the same measurement
// periods, the precondition for point-to-point persistent estimation
// (Section IV: "during the same measurement periods").
//
//ptm:noalloc
func CheckAligned(a, b *Set) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("%w: %d vs %d periods", ErrPeriodSkew, a.Len(), b.Len())
	}
	for i := range a.recs {
		if pa, pb := a.recs[i].Period, b.recs[i].Period; pa != pb {
			return fmt.Errorf("%w: period %d vs %d at index %d", ErrPeriodSkew, pa, pb, i)
		}
	}
	return nil
}
