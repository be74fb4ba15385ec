package central

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ptm/internal/lpc"
	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/vhash"
)

// countingStore counts the calls that read records; a cache hit must
// make none.
type countingStore struct {
	store.Store
	collects, lookups atomic.Int64
}

func (c *countingStore) Collect(loc vhash.LocationID, periods []record.PeriodID) ([]*record.Record, uint64, func(), error) {
	c.collects.Add(1)
	return c.Store.Collect(loc, periods)
}

func (c *countingStore) Lookup(loc vhash.LocationID, p record.PeriodID) (*record.Record, func(), bool) {
	c.lookups.Add(1)
	return c.Store.Lookup(loc, p)
}

// reads is the number of record-reading calls so far.
func (c *countingStore) reads() int64 { return c.collects.Load() + c.lookups.Load() }

// blockCache is the block cache's counters (zero without a cold tier).
func (c *countingStore) blockCache() store.CacheStats {
	if cs, ok := c.Store.(store.CacheStatser); ok {
		return cs.CacheStats()
	}
	return store.CacheStats{}
}

// probeFixture is one server under test plus an uncached resident
// reference holding the same records.
type probeFixture struct {
	srv  *Server
	st   *countingStore
	ref  *Server
	recs []*record.Record
}

var probeWindow = []record.PeriodID{1, 2, 3, 4}

// saturatedLoc holds one record, at period 1, with every bit set: its
// volume (Eq. 1) is an estimator error.
const saturatedLoc vhash.LocationID = 9

// probeFixtures builds locations 7 and 8 over probeWindow, plus the
// saturated record, behind a resident, a tiered (half frozen) and a
// read-only mapped store.
func probeFixtures(t *testing.T) map[string]*probeFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	var recs []*record.Record
	for _, loc := range []vhash.LocationID{7, 8} {
		for _, p := range probeWindow {
			recs = append(recs, seededRecord(t, rng, loc, p, 1024))
		}
	}
	saturated := mustRecord(t, saturatedLoc, 1, 1024)
	for i := uint64(0); i < 1024; i++ {
		saturated.Bitmap.Set(i)
	}
	recs = append(recs, saturated)
	ref := newServer(t)
	ref.SetEstimateCache(0)
	for _, rec := range recs {
		if err := ref.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}

	mem, err := store.NewMem(0)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := store.OpenTiered(t.TempDir(), store.TieredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []store.Store{mem, tiered} {
		for _, rec := range recs {
			if _, err := st.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tiered.Freeze(512); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var seg bytes.Buffer
	if err := store.WriteSegment(&seg, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000000000000000001.seg"), seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mmap, err := store.OpenMmap(dir, 0)
	if err != nil {
		t.Fatal(err)
	}

	out := make(map[string]*probeFixture)
	for name, st := range map[string]store.Store{"mem": mem, "tiered": tiered, "mmap": mmap} {
		cs := &countingStore{Store: st}
		srv, err := NewServerWithStore(3, cs)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			//ptmlint:allow errdrop -- test teardown; the assertions already ran
			_ = srv.CloseStore()
		})
		out[name] = &probeFixture{srv: srv, st: cs, ref: ref, recs: recs}
	}
	return out
}

// sameErr reports whether got is the error the reference returned.
func sameErr(got, want error) bool {
	return got != nil && want != nil && got.Error() == want.Error()
}

// TestProbeErrorsMatchUncached: requests the store or the record set
// rejects fail with the same error, text included, whether or not a
// cache is probed first — and count neither a hit nor a miss. A request
// the estimator itself rejects (a saturated volume) fails the same way
// too; it counts a miss each time it is asked, and never a hit.
func TestProbeErrorsMatchUncached(t *testing.T) {
	point := func(periods ...record.PeriodID) func(*Server) error {
		return func(s *Server) error {
			_, err := s.PointPersistent(7, periods)
			return err
		}
	}
	p2p := func(locB vhash.LocationID, periods ...record.PeriodID) func(*Server) error {
		return func(s *Server) error {
			_, err := s.PointToPointPersistent(7, locB, periods)
			return err
		}
	}
	volume := func(loc vhash.LocationID, p record.PeriodID) func(*Server) error {
		return func(s *Server) error {
			_, err := s.Volume(loc, p)
			return err
		}
	}
	cases := []struct {
		name     string
		query    func(*Server) error
		sentinel error
		computes bool // the estimator rejects it: one miss per ask
	}{
		{"point no periods", point(), ErrNoPeriods, false},
		{"point missing period", point(1, 9), ErrNotFound, false},
		{"point missing periods report the first", point(9, 1, 8), ErrNotFound, false},
		{"point duplicate period", point(2, 1, 2), record.ErrDupPeriod, false},
		{"point duplicate and missing", point(2, 2, 9), ErrNotFound, false},
		{"p2p no periods", p2p(8), ErrNoPeriods, false},
		{"p2p missing location", p2p(99, probeWindow...), ErrNotFound, false},
		{"p2p duplicate period", p2p(8, 3, 3), record.ErrDupPeriod, false},
		{"p2p duplicate at A before missing at B", p2p(99, 3, 3), record.ErrDupPeriod, false},
		{"volume missing period", volume(7, 9), ErrNotFound, false},
		{"volume missing location", volume(99, 1), ErrNotFound, false},
		{"volume saturated record", volume(saturatedLoc, 1), lpc.ErrSaturated, true},
	}
	for name, fx := range probeFixtures(t) {
		for _, cached := range []bool{true, false} {
			if !cached {
				fx.srv.SetEstimateCache(0)
			}
			for _, tc := range cases {
				want := tc.query(fx.ref)
				if !errors.Is(want, tc.sentinel) {
					t.Fatalf("%s: reference err %v, want %v", tc.name, want, tc.sentinel)
				}
				for ask := 0; ask < 2; ask++ {
					before := fx.srv.EstCacheStats()
					if got := tc.query(fx.srv); !sameErr(got, want) {
						t.Errorf("%s/cached=%v/%s: err %v, want %v", name, cached, tc.name, got, want)
					}
					after := fx.srv.EstCacheStats()
					misses := uint64(0)
					if tc.computes && cached {
						misses = 1
					}
					if after.Hits != before.Hits || after.Misses != before.Misses+misses {
						t.Errorf("%s/cached=%v/%s ask %d: want %d misses and no hit: %+v -> %+v", name, cached, tc.name, ask, misses, before, after)
					}
				}
			}
		}
	}
}

// TestProbeHitReadsNoRecord: the first query misses and computes; every
// repeat — in any period order — is answered bit-identically to an
// uncached compute without a Collect, a Lookup, or a block-cache read.
func TestProbeHitReadsNoRecord(t *testing.T) {
	// volumePeriod is frozen in the tiered fixture, so a volume miss
	// there reads through the block cache.
	const volumePeriod = 1
	for name, fx := range probeFixtures(t) {
		wantPoint, err := fx.ref.PointPersistent(7, probeWindow)
		if err != nil {
			t.Fatal(err)
		}
		wantP2P, err := fx.ref.PointToPointPersistent(7, 8, probeWindow)
		if err != nil {
			t.Fatal(err)
		}
		wantVolume, err := fx.ref.Volume(7, volumePeriod)
		if err != nil {
			t.Fatal(err)
		}
		for i, periods := range [][]record.PeriodID{probeWindow, probeWindow, {4, 2, 3, 1}} {
			reads, bc, est := fx.st.reads(), fx.st.blockCache(), fx.srv.EstCacheStats()
			point, err := fx.srv.PointPersistent(7, periods)
			if err != nil {
				t.Fatal(err)
			}
			p2p, err := fx.srv.PointToPointPersistent(7, 8, periods)
			if err != nil {
				t.Fatal(err)
			}
			volume, err := fx.srv.Volume(7, volumePeriod)
			if err != nil {
				t.Fatal(err)
			}
			if *point != *wantPoint || *p2p != *wantP2P || math.Float64bits(volume) != math.Float64bits(wantVolume) {
				t.Fatalf("%s query %d: %+v / %+v / %v, want %+v / %+v / %v", name, i, point, p2p, volume, wantPoint, wantP2P, wantVolume)
			}
			after := fx.srv.EstCacheStats()
			if i == 0 {
				if after.Misses != est.Misses+3 || after.Hits != est.Hits {
					t.Fatalf("%s: first queries must miss: %+v -> %+v", name, est, after)
				}
				continue
			}
			if after.Hits != est.Hits+3 || after.Misses != est.Misses {
				t.Fatalf("%s query %d (%v): want three hits: %+v -> %+v", name, i, periods, est, after)
			}
			if got := fx.st.reads(); got != reads {
				t.Errorf("%s query %d: hits made %d Collect/Lookup calls", name, i, got-reads)
			}
			if got := fx.st.blockCache(); got != bc {
				t.Errorf("%s query %d: hits moved the block cache: %+v -> %+v", name, i, bc, got)
			}
		}
	}
}

// TestProbeFreezeStillHits: a tier move between fill and probe keeps the
// epoch, so the cached answer is still the record set's.
func TestProbeFreezeStillHits(t *testing.T) {
	fx := probeFixtures(t)["tiered"]
	want, err := fx.srv.PointPersistent(7, probeWindow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.st.Store.(*store.Tiered).Freeze(0); err != nil {
		t.Fatal(err)
	}
	reads, est := fx.st.reads(), fx.srv.EstCacheStats()
	got, err := fx.srv.PointPersistent(7, probeWindow)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("after freeze: %+v, want %+v", got, want)
	}
	if after := fx.srv.EstCacheStats(); after.Hits != est.Hits+1 || fx.st.reads() != reads {
		t.Fatalf("query after freeze must hit without reading: %+v -> %+v, %d reads", est, after, fx.st.reads()-reads)
	}
}

// TestProbeRetentionReingestMisses: dropping a period and ingesting it
// again is a new record set (new epoch) even with identical bits, so
// the next query recomputes.
func TestProbeRetentionReingestMisses(t *testing.T) {
	fixtures := probeFixtures(t)
	for _, name := range []string{"mem", "tiered"} {
		fx := fixtures[name]
		want, err := fx.srv.PointPersistent(7, probeWindow)
		if err != nil {
			t.Fatal(err)
		}
		retired := fx.recs[0].Period
		wantVolume, err := fx.srv.Volume(7, retired)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fx.srv.RetainLatest(7, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.srv.PointPersistent(7, probeWindow); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: query over a retired period: err %v, want ErrNotFound", name, err)
		}
		if _, err := fx.srv.Volume(7, retired); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: volume of a retired period: err %v, want ErrNotFound", name, err)
		}
		if err := fx.srv.Ingest(fx.recs[0]); err != nil {
			t.Fatal(err)
		}
		est := fx.srv.EstCacheStats()
		got, err := fx.srv.PointPersistent(7, probeWindow)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("%s: after re-ingest: %+v, want %+v", name, got, want)
		}
		gotVolume, err := fx.srv.Volume(7, retired)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gotVolume) != math.Float64bits(wantVolume) {
			t.Fatalf("%s: volume after re-ingest: %v, want %v", name, gotVolume, wantVolume)
		}
		if after := fx.srv.EstCacheStats(); after.Misses != est.Misses+2 || after.Hits != est.Hits {
			t.Fatalf("%s: queries after retention and re-ingest must miss: %+v -> %+v", name, est, after)
		}
	}
}
