package central

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

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

// probeFixtures builds locations 7 and 8 over probeWindow behind a
// resident, a tiered (half frozen) and a read-only mapped store.
func probeFixtures(t *testing.T) map[string]*probeFixture {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	var recs []*record.Record
	for _, loc := range []vhash.LocationID{7, 8} {
		for _, p := range probeWindow {
			recs = append(recs, seededRecord(t, rng, loc, p, 1024))
		}
	}
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
// cache is probed first — and count neither a hit nor a miss.
func TestProbeErrorsMatchUncached(t *testing.T) {
	cases := []struct {
		name     string
		locB     vhash.LocationID // 0 for a point query
		periods  []record.PeriodID
		sentinel error
	}{
		{"point no periods", 0, nil, ErrNoPeriods},
		{"point missing period", 0, []record.PeriodID{1, 9}, ErrNotFound},
		{"point missing periods report the first", 0, []record.PeriodID{9, 1, 8}, ErrNotFound},
		{"point duplicate period", 0, []record.PeriodID{2, 1, 2}, record.ErrDupPeriod},
		{"point duplicate and missing", 0, []record.PeriodID{2, 2, 9}, ErrNotFound},
		{"p2p no periods", 8, nil, ErrNoPeriods},
		{"p2p missing location", 99, probeWindow, ErrNotFound},
		{"p2p duplicate period", 8, []record.PeriodID{3, 3}, record.ErrDupPeriod},
		{"p2p duplicate at A before missing at B", 99, []record.PeriodID{3, 3}, record.ErrDupPeriod},
	}
	query := func(s *Server, locB vhash.LocationID, periods []record.PeriodID) error {
		if locB == 0 {
			_, err := s.PointPersistent(7, periods)
			return err
		}
		_, err := s.PointToPointPersistent(7, locB, periods)
		return err
	}
	for name, fx := range probeFixtures(t) {
		for _, cached := range []bool{true, false} {
			if !cached {
				fx.srv.SetEstimateCache(0)
			}
			for _, tc := range cases {
				want := query(fx.ref, tc.locB, tc.periods)
				if !errors.Is(want, tc.sentinel) {
					t.Fatalf("%s: reference err %v, want %v", tc.name, want, tc.sentinel)
				}
				before := fx.srv.EstCacheStats()
				if got := query(fx.srv, tc.locB, tc.periods); !sameErr(got, want) {
					t.Errorf("%s/cached=%v/%s: err %v, want %v", name, cached, tc.name, got, want)
				}
				if after := fx.srv.EstCacheStats(); after.Hits+after.Misses != before.Hits+before.Misses {
					t.Errorf("%s/cached=%v/%s: a rejected query counted in the cache: %+v -> %+v", name, cached, tc.name, before, after)
				}
			}
		}
	}
}

// TestProbeHitReadsNoRecord: the first query misses and computes; every
// repeat — in any period order — is answered bit-identically to an
// uncached compute without a Collect, a Lookup, or a block-cache read.
func TestProbeHitReadsNoRecord(t *testing.T) {
	for name, fx := range probeFixtures(t) {
		wantPoint, err := fx.ref.PointPersistent(7, probeWindow)
		if err != nil {
			t.Fatal(err)
		}
		wantP2P, err := fx.ref.PointToPointPersistent(7, 8, probeWindow)
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
			if *point != *wantPoint || *p2p != *wantP2P {
				t.Fatalf("%s query %d: %+v / %+v, want %+v / %+v", name, i, point, p2p, wantPoint, wantP2P)
			}
			after := fx.srv.EstCacheStats()
			if i == 0 {
				if after.Misses != est.Misses+2 || after.Hits != est.Hits {
					t.Fatalf("%s: first queries must miss: %+v -> %+v", name, est, after)
				}
				continue
			}
			if after.Hits != est.Hits+2 || after.Misses != est.Misses {
				t.Fatalf("%s query %d (%v): want two hits: %+v -> %+v", name, i, periods, est, after)
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
		if _, err := fx.srv.RetainLatest(7, 3); err != nil {
			t.Fatal(err)
		}
		if _, err := fx.srv.PointPersistent(7, probeWindow); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: query over a retired period: err %v, want ErrNotFound", name, err)
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
		if after := fx.srv.EstCacheStats(); after.Misses != est.Misses+1 || after.Hits != est.Hits {
			t.Fatalf("%s: query after retention and re-ingest must miss: %+v -> %+v", name, est, after)
		}
	}
}
