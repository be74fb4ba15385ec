package store

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// loadWords builds a loader returning n words (8n bytes).
func loadWords(n int, loads *atomic.Int64, evicts *atomic.Int64) func() ([]uint64, int64, func() error, error) {
	return func() ([]uint64, int64, func() error, error) {
		if loads != nil {
			loads.Add(1)
		}
		var evict func() error
		if evicts != nil {
			evict = func() error { evicts.Add(1); return nil }
		}
		return make([]uint64, n), int64(n * 8), evict, nil
	}
}

func TestBlockCacheHitMissEvict(t *testing.T) {
	c := NewBlockCache(64) // room for exactly one 8-word span
	var loads, evicts atomic.Int64

	w1, unpin1, err := c.Get(spanKey{1, 0}, loadWords(8, &loads, &evicts))
	if err != nil || len(w1) != 8 {
		t.Fatalf("Get: %v", err)
	}
	unpin1()
	if _, unpin, err := c.Get(spanKey{1, 0}, loadWords(8, &loads, &evicts)); err != nil {
		t.Fatal(err)
	} else {
		unpin()
	}
	if loads.Load() != 1 {
		t.Fatalf("loads = %d, want 1 (second Get must hit)", loads.Load())
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// A second span overflows the budget; the idle first span goes.
	if _, unpin, err := c.Get(spanKey{1, 1}, loadWords(8, &loads, &evicts)); err != nil {
		t.Fatal(err)
	} else {
		unpin()
	}
	st = c.Stats()
	if st.Evictions != 1 || evicts.Load() != 1 {
		t.Fatalf("evictions = %d (release hooks %d), want 1", st.Evictions, evicts.Load())
	}
	if st.CachedBytes != 64 || st.Spans != 1 {
		t.Fatalf("after eviction: %+v", st)
	}
	// The evicted span reloads.
	if _, unpin, err := c.Get(spanKey{1, 0}, loadWords(8, &loads, &evicts)); err != nil {
		t.Fatal(err)
	} else {
		unpin()
	}
	if loads.Load() != 3 {
		t.Fatalf("loads = %d, want 3", loads.Load())
	}
}

func TestBlockCachePinBlocksEviction(t *testing.T) {
	c := NewBlockCache(64)
	_, unpinA, err := c.Get(spanKey{1, 0}, loadWords(8, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	// While A is pinned, admitting B must not evict A even though the
	// budget is blown.
	_, unpinB, err := c.Get(spanKey{1, 1}, loadWords(8, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Evictions != 0 || st.Spans != 2 || st.PinnedBytes != 128 {
		t.Fatalf("pinned spans were touched: %+v", st)
	}
	unpinA()
	unpinB()
	// The budget reasserts itself once pins drain.
	st = c.Stats()
	if st.CachedBytes > 64 || st.PinnedBytes != 0 {
		t.Fatalf("after unpin: %+v", st)
	}
}

func TestBlockCacheSharedLoad(t *testing.T) {
	c := NewBlockCache(1 << 20)
	var loads atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			words, unpin, err := c.Get(spanKey{7, 3}, loadWords(8, &loads, nil))
			if err != nil || len(words) != 8 {
				t.Errorf("Get: %v", err)
				return
			}
			unpin()
		}()
	}
	wg.Wait()
	if loads.Load() != 1 {
		t.Fatalf("racing Gets ran %d loads, want 1 shared", loads.Load())
	}
}

func TestBlockCacheLoadError(t *testing.T) {
	c := NewBlockCache(1 << 20)
	boom := errors.New("checksum mismatch")
	if _, _, err := c.Get(spanKey{1, 0}, func() ([]uint64, int64, func() error, error) {
		return nil, 0, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the load error", err)
	}
	// The failed span must not poison the key.
	if _, unpin, err := c.Get(spanKey{1, 0}, loadWords(8, nil, nil)); err != nil {
		t.Fatalf("Get after failed load: %v", err)
	} else {
		unpin()
	}
	if st := c.Stats(); st.Spans != 1 || st.CachedBytes != 64 {
		t.Fatalf("stats after recovery: %+v", st)
	}
}
