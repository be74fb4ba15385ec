package core

import (
	"errors"
	"testing"

	"ptm/internal/record"
)

// estTestSets builds a deterministic point set and an aligned second-
// location set for point-to-point calls.
func estTestSets(t *testing.T) (*record.Set, *record.Set) {
	t.Helper()
	pool := newIDPool(t, 3, 77)
	common := pool.take(40)
	setA := makeSet(t, pool, 11, 1<<10, common, []int{120, 140, 110, 130})
	setB := makeSet(t, pool, 12, 1<<10, common, []int{100, 90, 150, 95})
	return setA, setB
}

// TestEstCachePointHitBitIdentical: a hit must reproduce the cold
// result bit for bit — every field, floats included. The cache stores
// the cold struct and returns copies, so this also catches any future
// "recompute on hit" regression.
func TestEstCachePointHitBitIdentical(t *testing.T) {
	set, _ := estTestSets(t)
	c := NewEstCache(16)

	cold, err := EstimatePointOpts(set, SplitHalves)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := c.Point(5, set, SplitHalves)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.Point(5, set, SplitHalves)
	if err != nil {
		t.Fatal(err)
	}
	if *miss != *cold {
		t.Fatalf("miss result diverges from uncached: %+v vs %+v", miss, cold)
	}
	if *hit != *cold {
		t.Fatalf("hit result diverges from uncached: %+v vs %+v", hit, cold)
	}
	if hit == miss {
		t.Fatal("hit returned the stored pointer; callers could corrupt the cache")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats after miss+hit: %+v", st)
	}
}

// TestEstCacheP2PHitBitIdentical mirrors the point test for Eq. 21.
func TestEstCacheP2PHitBitIdentical(t *testing.T) {
	setA, setB := estTestSets(t)
	c := NewEstCache(16)

	cold, err := EstimatePointToPoint(setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := c.PointToPoint(1, 2, setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.PointToPoint(1, 2, setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *miss != *cold || *hit != *cold {
		t.Fatalf("cached p2p diverges: miss=%+v hit=%+v cold=%+v", miss, hit, cold)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestEstCacheEpochFencing: changing the epoch must force a recompute,
// and the stale epoch's entry must stay reachable only under its own
// epoch (lazy invalidation never returns stale data).
func TestEstCacheEpochFencing(t *testing.T) {
	set, _ := estTestSets(t)
	c := NewEstCache(16)

	if _, err := c.Point(1, set, SplitHalves); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Point(2, set, SplitHalves); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("epoch bump did not miss: %+v", st)
	}
	if _, err := c.Point(1, set, SplitHalves); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("old epoch no longer hits its own entry: %+v", st)
	}
}

// TestEstCacheKeySeparation: strategy, location, and period set all
// partition the key space — entries must never bleed across them.
func TestEstCacheKeySeparation(t *testing.T) {
	pool := newIDPool(t, 3, 78)
	common := pool.take(30)
	set := makeSet(t, pool, 21, 1<<9, common, []int{80, 90, 85, 95})
	other := makeSet(t, pool, 22, 1<<9, common, []int{80, 90, 85, 95})
	sub, err := record.NewSet([]*record.Record{
		{Location: 21, Period: set.Periods()[0], Bitmap: set.Bitmaps()[0]},
		{Location: 21, Period: set.Periods()[1], Bitmap: set.Bitmaps()[1]},
	})
	if err != nil {
		t.Fatal(err)
	}

	c := NewEstCache(16)
	for _, q := range []struct {
		set      *record.Set
		strategy SplitStrategy
	}{
		{set, SplitHalves},
		{set, SplitInterleaved},
		{other, SplitHalves},
		{sub, SplitHalves},
	} {
		want, err := EstimatePointOpts(q.set, q.strategy)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Point(7, q.set, q.strategy)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Fatalf("first call diverges for %v/%v", q.set.Location(), q.strategy)
		}
	}
	st := c.Stats()
	if st.Misses != 4 || st.Hits != 0 || st.Entries != 4 {
		t.Fatalf("distinct keys collided: %+v", st)
	}
}

// TestEstCacheLRUEviction: capacity bounds the entry count and evicts
// least-recently-used first.
func TestEstCacheLRUEviction(t *testing.T) {
	set, _ := estTestSets(t)
	c := NewEstCache(3)

	for epoch := uint64(1); epoch <= 4; epoch++ {
		if _, err := c.Point(epoch, set, SplitHalves); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.Len(); n != 3 {
		t.Fatalf("Len = %d, want capacity 3", n)
	}
	// Epoch 1 was least recently used and must be gone; 2..4 remain.
	if _, err := c.Point(2, set, SplitHalves); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("epoch 2 should have survived: %+v", st)
	}
	if _, err := c.Point(1, set, SplitHalves); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 5 {
		t.Fatalf("epoch 1 should have been evicted: %+v", st)
	}
}

// TestEstCacheErrorsNotCached: failed estimations leave no entry behind.
func TestEstCacheErrorsNotCached(t *testing.T) {
	pool := newIDPool(t, 3, 79)
	single := makeSet(t, pool, 31, 64, nil, []int{5}) // one period: too few
	c := NewEstCache(8)
	for i := 0; i < 2; i++ {
		if _, err := c.Point(1, single, SplitHalves); !errors.Is(err, ErrTooFewPeriods) {
			t.Fatalf("err = %v, want ErrTooFewPeriods", err)
		}
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("error cached: Len = %d", n)
	}
}

// TestEstCacheNilComputes: a nil cache (capacity <= 0) is the
// always-compute path and must match the direct estimator.
func TestEstCacheNilComputes(t *testing.T) {
	setA, setB := estTestSets(t)
	var c *EstCache = NewEstCache(0)
	if c != nil {
		t.Fatal("NewEstCache(0) should disable caching")
	}
	want, err := EstimatePointOpts(setA, SplitHalves)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Point(1, setA, SplitHalves)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatal("nil cache diverges from direct estimation")
	}
	wantP, err := EstimatePointToPoint(setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	gotP, err := c.PointToPoint(1, 2, setA, setB, 3)
	if err != nil {
		t.Fatal(err)
	}
	if *gotP != *wantP {
		t.Fatal("nil cache p2p diverges from direct estimation")
	}
	c.NoteInvalidations(2) // must not panic
	if st := c.Stats(); st != (EstCacheStats{}) {
		t.Fatalf("nil cache stats: %+v", st)
	}
	if c.Len() != 0 {
		t.Fatalf("nil cache Len: %d", c.Len())
	}
}

// TestEstCachePeriodVerification: entries are only served for the exact
// period set, even when the phash would collide (simulated by storing
// under a forged key).
func TestEstCachePeriodVerification(t *testing.T) {
	set, _ := estTestSets(t)
	c := NewEstCache(8)
	if _, err := c.Point(3, set, SplitHalves); err != nil {
		t.Fatal(err)
	}
	// Forge the entry's periods so they no longer match the set: the
	// next lookup must treat it as a miss and overwrite it.
	c.mu.Lock()
	for _, el := range c.entries {
		el.Value.(*estEntry).periods[0]++
	}
	c.mu.Unlock()
	if _, err := c.Point(3, set, SplitHalves); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("collision must degrade to miss-and-overwrite: %+v", st)
	}
	if _, err := c.Point(3, set, SplitHalves); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("overwritten entry should now hit: %+v", st)
	}
}

func TestHashPeriodsDistinguishesSets(t *testing.T) {
	mk := func(periods ...record.PeriodID) []record.PeriodID { return periods }
	a := hashPeriods(mk(1, 2, 3))
	b := hashPeriods(mk(1, 2, 4))
	d := hashPeriods(mk(1, 2))
	if a == b || a == d || b == d {
		t.Fatalf("FNV collisions across trivial sets: %x %x %x", a, b, d)
	}
	if got := hashPeriods(mk(1, 2, 3)); got != a {
		t.Fatalf("hashPeriods not deterministic: %x vs %x", got, a)
	}
}
