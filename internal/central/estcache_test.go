package central

import (
	"errors"
	"math"
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

// uncachedCopy is an uncached resident server holding the records s
// stores at locs — the reference a cached answer must match.
func uncachedCopy(t *testing.T, s *Server, locs ...vhash.LocationID) *Server {
	t.Helper()
	ref := newServer(t)
	ref.SetEstimateCache(0)
	for _, loc := range locs {
		for _, p := range s.Periods(loc) {
			rec, unpin, ok := s.Store().Lookup(loc, p)
			if !ok {
				t.Fatalf("loc=%d period=%d vanished", loc, p)
			}
			err := ref.Ingest(rec)
			unpin()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return ref
}

// TestServerEstCacheHitsAndIngestInvalidation: repeated queries hit the
// cache, results stay bit-identical, and an ingest at a period the
// window does not name leaves the cached entry live. A wider window
// naming the new period is its own key, and retention plus a re-ingest
// with different bits at a named period fences the entry, so the next
// query recomputes against the new record.
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
	if st := s.EstCacheStats(); st.Hits != 1 || st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("stats after warm query: %+v", st)
	}

	// New period at the same location, outside the window: the window's
	// records are unchanged, so the entry still answers.
	rec := mustRecord(t, 5, 99, 1<<10)
	for k := 0; k < 200; k++ {
		rec.Bitmap.Set(rng.Uint64())
	}
	if err := s.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	third, err := s.PointPersistent(5, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *third != *first {
		t.Fatalf("hit after an unnamed ingest diverges: %+v vs %+v", third, first)
	}
	if st := s.EstCacheStats(); st.Hits != 2 || st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("query after an ingest at an unnamed period must hit: %+v", st)
	}

	// Querying with the new period included is its own key.
	wider := append(append([]record.PeriodID{}, periods...), 99)
	if _, err := s.PointPersistent(5, wider); err != nil {
		t.Fatal(err)
	}
	if st := s.EstCacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("wider period set should miss: %+v", st)
	}

	// Retire the window's oldest period and re-ingest it with other bits:
	// the window now names a different record, so the query must miss
	// and answer from the new one.
	if n, err := s.RetainLatest(5, len(periods)); err != nil || n != 1 {
		t.Fatalf("RetainLatest dropped %d records (%v), want 1", n, err)
	}
	if st := s.EstCacheStats(); st.Invalidations != 1 {
		t.Fatalf("retention must count one invalidation per dropped record: %+v", st)
	}
	if err := s.Ingest(seededRecord(t, rng, 5, periods[0], 1<<10)); err != nil {
		t.Fatal(err)
	}
	fourth, err := s.PointPersistent(5, periods)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.EstCacheStats(); st.Hits != 2 || st.Misses != 3 {
		t.Fatalf("query over a re-ingested period must miss: %+v", st)
	}
	want, err := uncachedCopy(t, s, 5).PointPersistent(5, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *fourth != *want || *fourth == *first {
		t.Fatalf("re-ingested window answered %+v, want the new record's %+v (old %+v)", fourth, want, first)
	}
}

// TestServerEstCacheP2P: the point-to-point path caches too; an ingest
// at an unnamed period of either endpoint leaves the pair entry live,
// and retention plus a re-ingest at a named period of one endpoint
// fences it.
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

	// Ingest at an unnamed period of the B endpoint: neither fence moves.
	if err := s.Ingest(seededRecord(t, rng, 8, 50, 1<<10)); err != nil {
		t.Fatal(err)
	}
	third, err := s.PointToPointPersistent(7, 8, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *third != *first {
		t.Fatalf("p2p hit after an unnamed ingest diverges: %+v vs %+v", third, first)
	}
	if st := s.EstCacheStats(); st.Hits != 2 || st.Misses != 1 || st.Invalidations != 0 {
		t.Fatalf("p2p after an ingest at an unnamed period must hit: %+v", st)
	}

	// The wider window naming period 50 at both endpoints is its own key.
	if err := s.Ingest(seededRecord(t, rng, 7, 50, 1<<10)); err != nil {
		t.Fatal(err)
	}
	wider := append(append([]record.PeriodID{}, periods...), 50)
	if _, err := s.PointToPointPersistent(7, 8, wider); err != nil {
		t.Fatal(err)
	}
	if st := s.EstCacheStats(); st.Hits != 2 || st.Misses != 2 {
		t.Fatalf("wider p2p window should miss: %+v", st)
	}

	// Re-ingest B's oldest named period with other bits: the pair misses
	// and answers from the new record.
	if n, err := s.RetainLatest(8, len(periods)); err != nil || n != 1 {
		t.Fatalf("RetainLatest dropped %d records (%v), want 1", n, err)
	}
	if err := s.Ingest(seededRecord(t, rng, 8, periods[0], 1<<10)); err != nil {
		t.Fatal(err)
	}
	fourth, err := s.PointToPointPersistent(7, 8, periods)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.EstCacheStats(); st.Hits != 2 || st.Misses != 3 || st.Invalidations != 1 {
		t.Fatalf("p2p over a re-ingested period must miss: %+v", st)
	}
	want, err := uncachedCopy(t, s, 7, 8).PointToPointPersistent(7, 8, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *fourth != *want || *fourth == *first {
		t.Fatalf("re-ingested p2p answered %+v, want the new record's %+v (old %+v)", fourth, want, first)
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

// TestEstCacheHoldsZipfWorkingSet: a Zipf(1.1) stream of volume and
// point questions over more distinct questions than the old 1024-entry
// bound, but fewer than DefaultEstCacheEntries, misses exactly once per
// distinct question asked: no answer is evicted and recomputed.
func TestEstCacheHoldsZipfWorkingSet(t *testing.T) {
	const (
		locs    = 40
		periods = 60
		window  = 3
		asks    = 20000
	)
	s := newServer(t)
	rng := rand.New(rand.NewSource(48))
	for loc := vhash.LocationID(1); loc <= locs; loc++ {
		seedLocation(t, s, loc, periods, 64, rng)
	}
	type question struct {
		loc     vhash.LocationID
		periods []record.PeriodID // one period asks Volume, more PointPersistent
	}
	var questions []question
	for loc := vhash.LocationID(1); loc <= locs; loc++ {
		for p := record.PeriodID(1); p <= periods; p++ {
			questions = append(questions, question{loc, []record.PeriodID{p}})
			if p+window-1 <= periods {
				questions = append(questions, question{loc, []record.PeriodID{p, p + 1, p + 2}})
			}
		}
	}
	if len(questions) <= 1024 || len(questions) >= core.DefaultEstCacheEntries {
		t.Fatalf("%d distinct questions: the witness needs 1024 < K < %d", len(questions), core.DefaultEstCacheEntries)
	}
	rng.Shuffle(len(questions), func(i, j int) { questions[i], questions[j] = questions[j], questions[i] })

	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(questions)-1))
	asked := make(map[int]bool)
	for range asks {
		i := int(zipf.Uint64())
		asked[i] = true
		q := questions[i]
		var err error
		if len(q.periods) == 1 {
			_, err = s.Volume(q.loc, q.periods[0])
		} else {
			_, err = s.PointPersistent(q.loc, q.periods)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(asked) <= 1024 {
		t.Fatalf("the stream asked only %d distinct questions; the witness needs more than 1024", len(asked))
	}
	st := s.EstCacheStats()
	if st.Misses != uint64(len(asked)) || st.Hits+st.Misses != asks {
		t.Fatalf("%d distinct questions in %d asks: %d misses, %d hits; want one miss per distinct question", len(asked), asks, st.Misses, st.Hits)
	}
}

// TestEstCacheConcurrentQueryIngest is the -race soak: readers hammer
// volume, point and p2p queries while a writer keeps ingesting fresh
// periods at the queried locations (which must fence nothing) and the
// tiered store freezes under its small budget. Locations 1 and 2 hold a fixed
// window. Location 3's window is churned: retired with RetainLatest and
// re-ingested with the next of three contents, round after round. Every answer must be the fixed window's, or the one of a
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
	wantVolume, err := s.Volume(1, periods[0])
	if err != nil {
		t.Fatal(err)
	}

	// The three contents location 3's window cycles through, each with
	// its answers computed on an uncached resident server.
	var churn [3][]*record.Record
	var churnPoint [3]core.PointResult
	var churnP2P [3]core.PointToPointResult
	var churnVolume [3]uint64 // float64 bits
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
		vol, err := ref.Volume(3, periods[0])
		if err != nil {
			t.Fatal(err)
		}
		churnPoint[v], churnP2P[v], churnVolume[v] = *pt, *pp, math.Float64bits(vol)
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
				switch (j + g) % 6 {
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
				case 4:
					got, err := s.Volume(1, periods[0])
					if err != nil {
						errc <- err
						return
					}
					ok = math.Float64bits(got) == math.Float64bits(wantVolume)
				case 5:
					got, err := s.Volume(3, periods[0])
					if errors.Is(err, ErrNotFound) {
						continue
					} else if err != nil {
						errc <- err
						return
					}
					ok = liveRound(math.Float64bits(got), churnVolume, r0, round.Load())
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
	if st.Hits+st.Misses != uint64(answered.Load())+3 {
		t.Fatalf("every answered read must count exactly once: %+v, %d answered", st, answered.Load())
	}
	if st.Invalidations == 0 {
		t.Fatal("the churner's retention must record invalidations")
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
