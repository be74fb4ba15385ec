package central

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// seedLocation ingests nPeriods random records of m bits at loc.
func seedLocation(t *testing.T, s *Server, loc vhash.LocationID, nPeriods, m int, rng *rand.Rand) []record.PeriodID {
	t.Helper()
	periods := make([]record.PeriodID, nPeriods)
	for j := 0; j < nPeriods; j++ {
		rec := mustRecord(t, loc, record.PeriodID(j+1), m)
		for k := 0; k < m/2; k++ {
			rec.Bitmap.Set(rng.Uint64())
		}
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
		periods[j] = rec.Period
	}
	return periods
}

// TestServerEstCacheHitsAndIngestInvalidation: repeated queries hit the
// cache, results stay bit-identical, and an ingest at the location
// fences the cached entry so the next query recomputes against the new
// record set.
func TestServerEstCacheHitsAndIngestInvalidation(t *testing.T) {
	s := newServer(t)
	rng := rand.New(rand.NewSource(81))
	periods := seedLocation(t, s, 5, 4, 1<<10, rng)

	first, err := s.PointPersistent(5, periods)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.PointPersistent(5, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("cached query diverges: %+v vs %+v", first, second)
	}
	st := s.EstCacheStats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats after warm query: %+v", st)
	}

	// New period at the same location: epoch bumps, entry is fenced.
	// (Seeding already counted invalidations — every ingest after a
	// location's first one does — so check the delta.)
	invBefore := st.Invalidations
	rec := mustRecord(t, 5, 99, 1<<10)
	for k := 0; k < 200; k++ {
		rec.Bitmap.Set(rng.Uint64())
	}
	if err := s.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	st = s.EstCacheStats()
	if st.Invalidations != invBefore+1 {
		t.Fatalf("ingest at live location must count an invalidation: %+v (before: %d)", st, invBefore)
	}

	// Same periods as before — but the epoch changed, so this must be a
	// recompute, not a stale hit.
	third, err := s.PointPersistent(5, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *third != *first {
		t.Fatalf("query over unchanged periods must still be deterministic: %+v vs %+v", third, first)
	}
	st = s.EstCacheStats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("post-ingest query must miss: %+v", st)
	}

	// Querying with the new period included is its own key.
	wider := append(append([]record.PeriodID{}, periods...), 99)
	if _, err := s.PointPersistent(5, wider); err != nil {
		t.Fatal(err)
	}
	if st := s.EstCacheStats(); st.Misses != 3 {
		t.Fatalf("wider period set should miss: %+v", st)
	}
}

// TestServerEstCacheP2P: the point-to-point path caches too, and an
// ingest at either endpoint fences the pair entry.
func TestServerEstCacheP2P(t *testing.T) {
	s := newServer(t)
	rng := rand.New(rand.NewSource(82))
	periods := seedLocation(t, s, 7, 3, 1<<10, rng)
	for j, p := range periods {
		rec := mustRecord(t, 8, p, 1<<10)
		for k := 0; k < 300+j; k++ {
			rec.Bitmap.Set(rng.Uint64())
		}
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}

	first, err := s.PointToPointPersistent(7, 8, periods)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.PointToPointPersistent(7, 8, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("cached p2p diverges: %+v vs %+v", first, second)
	}
	if st := s.EstCacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("p2p stats: %+v", st)
	}

	// Ingest at the B endpoint only: the pair key's epochB changes.
	rec := mustRecord(t, 8, 50, 1<<10)
	if err := s.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	third, err := s.PointToPointPersistent(7, 8, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *third != *first {
		t.Fatalf("p2p over unchanged periods changed: %+v vs %+v", third, first)
	}
	if st := s.EstCacheStats(); st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("p2p post-ingest stats: %+v", st)
	}
}

// TestServerEstCacheDisabled: SetEstimateCache(0) turns caching off
// without changing results.
func TestServerEstCacheDisabled(t *testing.T) {
	s := newServer(t)
	rng := rand.New(rand.NewSource(83))
	periods := seedLocation(t, s, 9, 3, 1<<9, rng)

	cached, err := s.PointPersistent(9, periods)
	if err != nil {
		t.Fatal(err)
	}
	s.SetEstimateCache(0)
	uncached, err := s.PointPersistent(9, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *cached != *uncached {
		t.Fatalf("disabling the cache changed the estimate: %+v vs %+v", cached, uncached)
	}
	if st := s.EstCacheStats(); st != (core.EstCacheStats{}) {
		t.Fatalf("disabled cache must report zero stats: %+v", st)
	}
}

// TestEstCacheConcurrentQueryIngest is the -race soak: readers hammer
// point and p2p queries while a writer keeps ingesting fresh periods at
// the queried locations (fencing the cache under the readers' feet) and
// the tiered store freezes under its small budget. Locations 1 and 2
// hold a fixed window. Location 3's window is churned: retired with
// RetainLatest and re-ingested with the next of three contents, round
// after round. Every answer must be the fixed window's, or the one of a
// churn round that was live while the query ran, or ErrNotFound — never
// an earlier round's. Run by check.sh's race stress stage with -count=2.
func TestEstCacheConcurrentQueryIngest(t *testing.T) {
	s, _ := newTieredServer(t, 1<<10)
	rng := rand.New(rand.NewSource(84))
	const m = 1 << 9
	periods := seedLocation(t, s, 1, 4, m, rng)
	fixedB := make([]*record.Record, len(periods))
	for i, p := range periods {
		fixedB[i] = seededRecord(t, rng, 2, p, m)
		if err := s.Ingest(fixedB[i]); err != nil {
			t.Fatal(err)
		}
	}

	// The fixed window's records never change after seeding, so every
	// read — cached or recomputed, before or after any ingest — must
	// produce this exact result.
	wantPoint, err := s.PointPersistent(1, periods)
	if err != nil {
		t.Fatal(err)
	}
	wantP2P, err := s.PointToPointPersistent(1, 2, periods)
	if err != nil {
		t.Fatal(err)
	}

	// The three contents location 3's window cycles through, each with
	// its answers computed on an uncached resident server.
	var churn [3][]*record.Record
	var churnPoint [3]core.PointResult
	var churnP2P [3]core.PointToPointResult
	for v := range churn {
		ref := newServer(t)
		ref.SetEstimateCache(0)
		for i, p := range periods {
			churn[v] = append(churn[v], seededRecord(t, rng, 3, p, m))
			if err := ref.Ingest(churn[v][i]); err != nil {
				t.Fatal(err)
			}
			if err := ref.Ingest(fixedB[i]); err != nil {
				t.Fatal(err)
			}
		}
		pt, err := ref.PointPersistent(3, periods)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := ref.PointToPointPersistent(3, 2, periods)
		if err != nil {
			t.Fatal(err)
		}
		churnPoint[v], churnP2P[v] = *pt, *pp
	}
	for _, rec := range churn[0] {
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	// round is the last churn round whose window is fully ingested.
	var round atomic.Int64

	const (
		readers       = 4
		readsPerGo    = 200
		writerPeriods = 120
	)
	var wg, churnWg sync.WaitGroup
	var answered atomic.Int64
	stop := make(chan struct{})
	errc := make(chan error, readers+2)

	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(85))
		for j := 0; j < writerPeriods; j++ {
			loc := vhash.LocationID(1 + j%2)
			rec, err := record.New(loc, record.PeriodID(1000+j), m)
			if err != nil {
				errc <- err
				return
			}
			for k := 0; k < m/4; k++ {
				rec.Bitmap.Set(wrng.Uint64())
			}
			if err := s.Ingest(rec); err != nil {
				errc <- err
				return
			}
		}
	}()

	churnWg.Add(1)
	go func() {
		defer churnWg.Done()
		for r := int64(1); ; r++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.RetainLatest(3, 0); err != nil {
				errc <- err
				return
			}
			for _, rec := range churn[r%3] {
				if err := s.Ingest(rec); err != nil {
					errc <- err
					return
				}
			}
			round.Store(r)
		}
	}()

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for j := 0; j < readsPerGo; j++ {
				var ok bool
				r0 := round.Load()
				switch (j + g) % 4 {
				case 0:
					got, err := s.PointPersistent(1, periods)
					if err != nil {
						errc <- err
						return
					}
					ok = *got == *wantPoint
				case 1:
					got, err := s.PointToPointPersistent(1, 2, periods)
					if err != nil {
						errc <- err
						return
					}
					ok = *got == *wantP2P
				case 2:
					got, err := s.PointPersistent(3, periods)
					if errors.Is(err, ErrNotFound) {
						continue
					} else if err != nil {
						errc <- err
						return
					}
					ok = liveRound(*got, churnPoint, r0, round.Load())
				case 3:
					got, err := s.PointToPointPersistent(3, 2, periods)
					if errors.Is(err, ErrNotFound) {
						continue
					} else if err != nil {
						errc <- err
						return
					}
					ok = liveRound(*got, churnP2P, r0, round.Load())
				}
				if !ok {
					errc <- errDrift
					return
				}
				answered.Add(1)
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	churnWg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := s.EstCacheStats()
	if st.Hits+st.Misses != uint64(answered.Load())+2 {
		t.Fatalf("every answered read must count exactly once: %+v, %d answered", st, answered.Load())
	}
	if st.Invalidations == 0 {
		t.Fatal("writer ingests at live locations must record invalidations")
	}
}

// liveRound reports whether got is the answer of a churn round whose
// window could have been complete while the query ran: round r0 (live
// at the start) through r1+1 (fully ingested, not yet announced, at the
// end).
func liveRound[T comparable](got T, answers [3]T, r0, r1 int64) bool {
	for r := r0; r <= r1+1; r++ {
		if got == answers[r%3] {
			return true
		}
	}
	return false
}

var errDrift = &driftError{}

type driftError struct{}

func (*driftError) Error() string {
	return "concurrent cached query diverged from every answer live while it ran"
}
