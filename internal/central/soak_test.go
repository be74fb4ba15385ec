package central

import (
	"testing"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// TestSoakCityScale exercises the store at deployment scale: 1000
// locations x 30 periods of ingest, enumeration, queries, and
// bookkeeping consistency.
func TestSoakCityScale(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		locations = 1000
		periods   = 30
	)
	s := newServer(t)
	for loc := 1; loc <= locations; loc++ {
		for p := 1; p <= periods; p++ {
			rec := mustRecord(t, vhash.LocationID(loc), record.PeriodID(p), 64)
			rec.Bitmap.Set(uint64(loc*p) * 0x9e3779b97f4a7c15)
			if err := s.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := s.Stats()
	if st.Locations != locations || st.Records != locations*periods {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(s.Locations()); got != locations {
		t.Fatalf("locations = %d", got)
	}
	// Queries work across the whole store.
	for _, loc := range []vhash.LocationID{1, 500, 1000} {
		if _, err := s.Volume(loc, 15); err != nil {
			t.Errorf("volume at %d: %v", loc, err)
		}
		if _, err := s.PointPersistent(loc, []record.PeriodID{1, 10, 20, 30}); err != nil {
			t.Errorf("point at %d: %v", loc, err)
		}
	}
}
