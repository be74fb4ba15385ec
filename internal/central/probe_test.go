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

// countingStore forwards every Store method to inner and counts the
// calls; a cache hit must make none. The embedded Store is nil: a
// method this type does not forward panics instead of going uncounted.
type countingStore struct {
	store.Store
	inner                    store.Store
	calls, collects, lookups atomic.Int64
}

func (c *countingStore) Ingest(rec *record.Record) (int, error) {
	c.calls.Add(1)
	return c.inner.Ingest(rec)
}

func (c *countingStore) Contains(loc vhash.LocationID, p record.PeriodID) bool {
	c.calls.Add(1)
	return c.inner.Contains(loc, p)
}

func (c *countingStore) Lookup(loc vhash.LocationID, p record.PeriodID) (*record.Record, func(), bool) {
	c.calls.Add(1)
	c.lookups.Add(1)
	return c.inner.Lookup(loc, p)
}

func (c *countingStore) Collect(loc vhash.LocationID, periods []record.PeriodID) ([]*record.Record, uint64, func(), error) {
	c.calls.Add(1)
	c.collects.Add(1)
	return c.inner.Collect(loc, periods)
}

func (c *countingStore) Locations() []vhash.LocationID {
	c.calls.Add(1)
	return c.inner.Locations()
}

func (c *countingStore) Periods(loc vhash.LocationID) []record.PeriodID {
	c.calls.Add(1)
	return c.inner.Periods(loc)
}

func (c *countingStore) Sorted(fn func(recs []*record.Record) error) error {
	c.calls.Add(1)
	return c.inner.Sorted(fn)
}

func (c *countingStore) Stats() store.Stats {
	c.calls.Add(1)
	return c.inner.Stats()
}

func (c *countingStore) Close() error {
	c.calls.Add(1)
	return c.inner.Close()
}

// reads is the number of record-reading calls so far.
func (c *countingStore) reads() int64 { return c.collects.Load() + c.lookups.Load() }

// blockCache is the block cache's counters (zero without a cold tier).
func (c *countingStore) blockCache() store.CacheStats {
	if cs, ok := c.inner.(store.CacheStatser); ok {
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
		cs := &countingStore{inner: st}
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

// TestProbeHitMakesNoStoreCall: a volume, point or p2p query the cache
// answers calls no store method at all — it reads neither a record nor
// the index.
func TestProbeHitMakesNoStoreCall(t *testing.T) {
	for name, fx := range probeFixtures(t) {
		ask := func() error {
			if _, err := fx.srv.Volume(7, 1); err != nil {
				return err
			}
			if _, err := fx.srv.PointPersistent(7, probeWindow); err != nil {
				return err
			}
			_, err := fx.srv.PointToPointPersistent(7, 8, probeWindow)
			return err
		}
		if err := ask(); err != nil {
			t.Fatal(err)
		}
		calls, est := fx.st.calls.Load(), fx.srv.EstCacheStats()
		if err := ask(); err != nil {
			t.Fatal(err)
		}
		if after := fx.srv.EstCacheStats(); after.Hits != est.Hits+3 || after.Misses != est.Misses {
			t.Fatalf("%s: repeated queries must hit: %+v -> %+v", name, est, after)
		}
		if got := fx.st.calls.Load() - calls; got != 0 {
			t.Errorf("%s: three cache hits made %d store calls, want 0", name, got)
		}
	}
}

// TestProbeFreezeStillHits: a tier move between fill and probe leaves
// the records' bits, and so the cached answer, as they were.
func TestProbeFreezeStillHits(t *testing.T) {
	fx := probeFixtures(t)["tiered"]
	want, err := fx.srv.PointPersistent(7, probeWindow)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.st.inner.(*store.Tiered).Freeze(0); err != nil {
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
