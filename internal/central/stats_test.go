package central

import (
	"strings"
	"testing"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

func fill(t *testing.T, s *Server) {
	t.Helper()
	for loc := 1; loc <= 3; loc++ {
		for p := 1; p <= 5; p++ {
			if err := s.Ingest(mustRecord(t, vhashLoc(loc), record.PeriodID(p), 64)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func vhashLoc(i int) vhash.LocationID { return vhash.LocationID(i) } // keep call sites terse

func TestStoreStats(t *testing.T) {
	s := newServer(t)
	st := s.Stats()
	if st.Locations != 0 || st.Records != 0 || st.Bits != 0 {
		t.Errorf("empty stats = %+v", st)
	}
	fill(t, s)
	st = s.Stats()
	if st.Locations != 3 || st.Records != 15 || st.Bits != 15*64 {
		t.Errorf("stats = %+v", st)
	}
	if !strings.Contains(st.String(), "records=15") {
		t.Errorf("String() = %q", st.String())
	}
}
