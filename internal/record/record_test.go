package record

import (
	"errors"
	"testing"

	"ptm/internal/vhash"
)

func mustRecord(t *testing.T, loc vhash.LocationID, p PeriodID, m int) *Record {
	t.Helper()
	r, err := New(loc, p, m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNew(t *testing.T) {
	r := mustRecord(t, 7, 3, 128)
	if r.Location != 7 || r.Period != 3 || r.Size() != 128 {
		t.Errorf("unexpected record: %v", r)
	}
	if err := r.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestNewBadSize(t *testing.T) {
	if _, err := New(1, 1, 100); err == nil {
		t.Error("non-power-of-two size accepted")
	}
}

func TestValidateNilBitmap(t *testing.T) {
	r := &Record{Location: 1, Period: 1}
	if err := r.Validate(); !errors.Is(err, ErrNilBitmap) {
		t.Errorf("err = %v, want ErrNilBitmap", err)
	}
	if _, err := r.MarshalBinary(); !errors.Is(err, ErrNilBitmap) {
		t.Errorf("MarshalBinary err = %v, want ErrNilBitmap", err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	r := mustRecord(t, 42, 9, 256)
	r.Bitmap.Set(17)
	r.Bitmap.Set(200)
	data, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Location != r.Location || got.Period != r.Period {
		t.Errorf("header mismatch: %v vs %v", got, r)
	}
	if !got.Bitmap.Equal(r.Bitmap) {
		t.Error("bitmap mismatch after round trip")
	}
}

// corruptRecords is a valid record's encoding and one corruption of it
// per check the decoder makes. "flipped bitmap" is the only one past the
// header.
func corruptRecords(t *testing.T) (good []byte, cases map[string][]byte) {
	t.Helper()
	r := mustRecord(t, 1, 1, 64)
	r.Bitmap.Set(5)
	good, err := r.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func([]byte)) []byte {
		d := make([]byte, len(good))
		copy(d, good)
		f(d)
		return d
	}
	return good, map[string][]byte{
		"short":          good[:10],
		"empty":          {},
		"bad magic":      mutate(func(d []byte) { d[1] ^= 0xff }),
		"bad version":    mutate(func(d []byte) { d[4] = 9 }),
		"bad reserved":   mutate(func(d []byte) { d[6] = 1 }),
		"bad blob len":   mutate(func(d []byte) { d[20] ^= 0x01 }),
		"flipped bitmap": mutate(func(d []byte) { d[recHeader+20] ^= 0x01 }),
		"truncated":      good[:len(good)-1],
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	_, cases := corruptRecords(t)
	for name, data := range cases {
		if _, err := Unmarshal(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestUnmarshalHeaderRejectsCorruption: the header reader rejects every
// corruption Unmarshal finds before the bitmap blob, with Unmarshal's
// exact error, and reads a record whose blob alone is corrupt.
func TestUnmarshalHeaderRejectsCorruption(t *testing.T) {
	good, cases := corruptRecords(t)
	if loc, p, err := UnmarshalHeader(good); err != nil || loc != 1 || p != 1 {
		t.Fatalf("good record: %d, %d, %v", loc, p, err)
	}
	for name, data := range cases {
		loc, p, err := UnmarshalHeader(data)
		_, want := Unmarshal(data)
		if name == "flipped bitmap" {
			if err != nil || loc != 1 || p != 1 {
				t.Errorf("%s: %d, %d, %v; the header is intact", name, loc, p, err)
			}
			continue
		}
		if !errors.Is(err, ErrCorrupt) || want == nil || err.Error() != want.Error() {
			t.Errorf("%s: err = %v, want Unmarshal's %v", name, err, want)
		}
	}
}

func TestNewSetSortsAndValidates(t *testing.T) {
	recs := []*Record{
		mustRecord(t, 5, 3, 64),
		mustRecord(t, 5, 1, 128),
		mustRecord(t, 5, 2, 64),
	}
	s, err := NewSet(recs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Location() != 5 || s.Len() != 3 {
		t.Errorf("set loc/len = %d/%d", s.Location(), s.Len())
	}
	want := []PeriodID{1, 2, 3}
	for i, p := range s.Periods() {
		if p != want[i] {
			t.Errorf("Periods[%d] = %d, want %d", i, p, want[i])
		}
	}
	if s.MaxSize() != 128 {
		t.Errorf("MaxSize = %d, want 128", s.MaxSize())
	}
	if len(s.Bitmaps()) != 3 {
		t.Errorf("Bitmaps len = %d", len(s.Bitmaps()))
	}
	// Input order must be preserved in the caller's slice (copy semantics).
	if recs[0].Period != 3 {
		t.Error("NewSet mutated caller's slice order")
	}
}

func TestNewSetErrors(t *testing.T) {
	if _, err := NewSet(nil); !errors.Is(err, ErrEmptySet) {
		t.Errorf("empty err = %v", err)
	}
	mixed := []*Record{mustRecord(t, 1, 1, 64), mustRecord(t, 2, 2, 64)}
	if _, err := NewSet(mixed); !errors.Is(err, ErrMixedSet) {
		t.Errorf("mixed err = %v", err)
	}
	dup := []*Record{mustRecord(t, 1, 1, 64), mustRecord(t, 1, 1, 64)}
	if _, err := NewSet(dup); !errors.Is(err, ErrDupPeriod) {
		t.Errorf("dup err = %v", err)
	}
	bad := []*Record{{Location: 1, Period: 1}}
	if _, err := NewSet(bad); !errors.Is(err, ErrNilBitmap) {
		t.Errorf("nil-bitmap err = %v", err)
	}
}

func TestCheckAligned(t *testing.T) {
	a, err := NewSet([]*Record{mustRecord(t, 1, 1, 64), mustRecord(t, 1, 2, 64)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewSet([]*Record{mustRecord(t, 2, 1, 64), mustRecord(t, 2, 2, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAligned(a, b); err != nil {
		t.Errorf("aligned sets rejected: %v", err)
	}

	c, err := NewSet([]*Record{mustRecord(t, 3, 1, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAligned(a, c); !errors.Is(err, ErrPeriodSkew) {
		t.Errorf("length skew err = %v", err)
	}
	d, err := NewSet([]*Record{mustRecord(t, 4, 1, 64), mustRecord(t, 4, 3, 64)})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckAligned(a, d); !errors.Is(err, ErrPeriodSkew) {
		t.Errorf("period skew err = %v", err)
	}
}

func TestBitmapsShareUnderlying(t *testing.T) {
	r := mustRecord(t, 1, 1, 64)
	s, err := NewSet([]*Record{r})
	if err != nil {
		t.Fatal(err)
	}
	s.Bitmaps()[0].Set(3)
	if !r.Bitmap.Get(3) {
		t.Error("Bitmaps should expose the records' bitmaps, not copies")
	}
	// The slice itself is the set's own, built once: repeated calls must
	// not allocate (the estimator hot loops depend on this).
	if allocs := testing.AllocsPerRun(100, func() { _ = s.Bitmaps() }); allocs != 0 {
		t.Errorf("Bitmaps allocates %.0f per call, want 0", allocs)
	}
}
