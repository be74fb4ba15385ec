package central

import (
	"bytes"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/vhash"
)

// TestNewServerShardedValidation: NewServer shards its resident store
// DefaultShards ways. Which shard counts a store accepts is
// store.NewMem's contract (TestMemShardCountValidation).
func TestNewServerShardedValidation(t *testing.T) {
	srv, err := NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.Store().(*store.Mem).Shards(); n != DefaultShards {
		t.Errorf("NewServer: %d shards, want %d", n, DefaultShards)
	}
}

// TestSnapshotShardCountIndependent: SaveTo sorts globally, so the
// snapshot bytes must not depend on how the store is sharded.
func TestSnapshotShardCountIndependent(t *testing.T) {
	var snaps [][]byte
	for _, n := range []int{1, 4, 64} {
		st, err := store.NewMem(n)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServerWithStore(3, st)
		if err != nil {
			t.Fatal(err)
		}
		for loc := 1; loc <= 50; loc++ {
			for p := 1; p <= 4; p++ {
				rec := mustRecord(t, vhash.LocationID(loc), record.PeriodID(p), 64)
				rec.Bitmap.Set(uint64(loc * p))
				if err := srv.Ingest(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if err := srv.SaveTo(&buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	if !bytes.Equal(snaps[0], snaps[1]) || !bytes.Equal(snaps[0], snaps[2]) {
		t.Error("snapshot bytes vary with shard count")
	}
}

// TestConcurrentUploadQuerySoak hammers the sharded store with parallel
// ingest, queries, listings, and stats. Run under -race this
// is the store's memory-model check; the final census must be exact.
func TestConcurrentUploadQuerySoak(t *testing.T) {
	const (
		writers = 8
		perLoc  = 40
	)
	srv, err := NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var ingested atomic.Int64

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for p := 1; p <= perLoc; p++ {
				for loc := w * 10; loc < w*10+10; loc++ {
					rec := mustRecord(t, vhash.LocationID(loc+1), record.PeriodID(p), 64)
					rec.Bitmap.Set(uint64(loc+p) * 0x9e3779b97f4a7c15)
					if err := srv.Ingest(rec); err != nil {
						t.Error(err)
						return
					}
					ingested.Add(1)
				}
			}
		}(w)
	}
	// Readers churn every cross-shard and per-shard read path while
	// writers run.
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = srv.Stats()
				for _, loc := range srv.Locations() {
					ps := srv.Periods(loc)
					if len(ps) == 0 {
						continue
					}
					// A listed period stays stored; the estimators may
					// reject these sparse records, which is not checked.
					if _, err := srv.Volume(loc, ps[0]); errors.Is(err, ErrNotFound) {
						t.Errorf("volume of listed period %d at loc %d: %v", ps[0], loc, err)
					}
					if len(ps) >= 2 {
						if _, err := srv.PointPersistent(loc, ps[:2]); errors.Is(err, ErrNotFound) {
							t.Errorf("point over listed periods %v at loc %d: %v", ps[:2], loc, err)
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	want := int64(writers * 10 * perLoc)
	if got := ingested.Load(); got != want {
		t.Fatalf("ingested %d, want %d", got, want)
	}
	st := srv.Stats()
	if st.Locations != writers*10 || int64(st.Records) != want {
		t.Errorf("stats = %+v, want %d locations, %d records", st, writers*10, want)
	}
}
