package store

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"ptm/internal/record"
)

// TestCollectRacesIngestAndFreeze: a record, once stored, is collected
// with the same bits for the life of the store. While one goroutine
// ingests new periods at the window's location and (tiered) another
// freezes everything, named records included, readers collect the
// window and every answer must have the first answer's bits; they also
// collect periods the writer has finished ingesting, which must come
// back with the bits it ingested. Run by check.sh's race stress stage
// with -count=2.
func TestCollectRacesIngestAndFreeze(t *testing.T) {
	const (
		loc      = 5
		first    = 100 // the writer's first period
		written  = 200 // periods the writer ingests
		readers  = 2
		minReads = 100 // per reader, however soon the writers finish
	)
	window := []record.PeriodID{1, 2, 3, 4}
	for _, name := range []string{"mem", "tiered"} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(29))
			var st Store
			var tiered *Tiered
			if name == "mem" {
				mem, err := NewMem(0)
				if err != nil {
					t.Fatal(err)
				}
				st = mem
			} else {
				var err error
				if tiered, err = OpenTiered(t.TempDir(), TieredOptions{}); err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { tiered.Close() })
				st = tiered
			}
			for _, p := range window {
				if _, err := st.Ingest(testRecord(rng, loc, p, 1024)); err != nil {
					t.Fatal(err)
				}
			}
			firstAnswer, _, unpin, err := st.Collect(loc, window)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]*record.Record, len(firstAnswer))
			for i, rec := range firstAnswer {
				want[i] = &record.Record{Location: rec.Location, Period: rec.Period, Bitmap: rec.Bitmap.Clone()}
			}
			unpin()
			recs := make([]*record.Record, written)
			for i := range recs {
				recs[i] = testRecord(rng, loc, first+record.PeriodID(i), 1024)
			}

			// sameBits reports whether got holds want's records, bit for bit.
			sameBits := func(got, want []*record.Record) bool {
				if len(got) != len(want) {
					return false
				}
				for i := range got {
					if got[i].Location != want[i].Location || got[i].Period != want[i].Period || !got[i].Bitmap.Equal(want[i].Bitmap) {
						return false
					}
				}
				return true
			}

			// done counts the writer's finished ingests; stop closes when
			// the writers are through.
			var done atomic.Int64
			var writers, rd sync.WaitGroup
			stop := make(chan struct{})
			errc := make(chan error, readers+2)
			ingested := make(chan struct{})
			writers.Add(1)
			go func() {
				defer writers.Done()
				defer close(ingested)
				for _, rec := range recs {
					if _, err := st.Ingest(rec); err != nil {
						errc <- err
						return
					}
					done.Add(1)
				}
			}()
			if tiered != nil {
				writers.Add(1)
				go func() {
					defer writers.Done()
					for {
						if _, err := tiered.Freeze(0); err != nil {
							errc <- err
							return
						}
						select {
						case <-ingested:
							return
						default:
						}
					}
				}()
			}
			for g := 0; g < readers; g++ {
				rd.Add(1)
				go func(seed int64) {
					defer rd.Done()
					rrng := rand.New(rand.NewSource(seed))
					for n := 0; ; n++ {
						if n >= minReads {
							select {
							case <-stop:
								return
							default:
							}
						}
						got, _, unpin, err := st.Collect(loc, window)
						if err != nil {
							errc <- err
							return
						}
						ok := sameBits(got, want)
						unpin()
						if !ok {
							errc <- errors.New("a window collect returned other bits than the first answer")
							return
						}
						if n := done.Load(); n > 0 {
							i := rrng.Intn(int(n))
							got, _, unpin, err := st.Collect(loc, []record.PeriodID{recs[i].Period})
							if err != nil {
								errc <- err
								return
							}
							ok := sameBits(got, recs[i:i+1])
							unpin()
							if !ok {
								errc <- errors.New("an ingested record came back with other bits")
								return
							}
						}
					}
				}(int64(30 + g))
			}
			writers.Wait()
			close(stop)
			rd.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if tiered != nil {
				if st := tiered.Stats(); st.ColdRecords == 0 {
					t.Fatalf("the freezer froze nothing: %+v", st)
				}
			}
		})
	}
}
