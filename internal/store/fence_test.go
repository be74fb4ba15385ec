package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ptm/internal/record"
	"ptm/internal/vhash"
)

// fenceStores returns the same eight records (locations 5 and 6,
// periods 1-4) behind each Store implementation: resident, tiered with
// the oldest half frozen, and read-only mapped.
func fenceStores(t *testing.T) map[string]Store {
	t.Helper()
	rng := rand.New(rand.NewSource(27))
	var recs []*record.Record
	for _, loc := range []vhash.LocationID{5, 6} {
		for p := record.PeriodID(1); p <= 4; p++ {
			recs = append(recs, testRecord(rng, loc, p, 1024))
		}
	}

	mem, err := NewMem(0)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, mem, recs)

	tiered, err := OpenTiered(t.TempDir(), TieredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tiered.Close() })
	ingestAll(t, tiered, recs)
	if _, err := tiered.Freeze(512); err != nil {
		t.Fatal(err)
	}
	if st := tiered.Stats(); st.HotRecords == 0 || st.ColdRecords == 0 {
		t.Fatalf("tiered store should span both tiers: %+v", st)
	}

	dir := t.TempDir()
	var seg bytes.Buffer
	sorted := append([]*record.Record(nil), recs...)
	sortRecords(sorted)
	if err := WriteSegment(&seg, sorted); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segFileName(1)), seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	mmap, err := OpenMmap(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mmap.Close() })

	return map[string]Store{"mem": mem, "tiered": tiered, "mmap": mmap}
}

// coldReads is the block cache's hit+miss count, zero without a cold tier.
func coldReads(s Store) uint64 {
	cs, ok := s.(CacheStatser)
	if !ok {
		return 0
	}
	st := cs.CacheStats()
	return st.Hits + st.Misses
}

// TestFenceMatchesCollect: on every store, Fence returns exactly the
// epoch and the error Collect returns for the same request, and it
// reads no cold data getting there.
func TestFenceMatchesCollect(t *testing.T) {
	cases := []struct {
		name    string
		loc     vhash.LocationID
		periods []record.PeriodID
	}{
		{"missing period", 5, []record.PeriodID{1, 9}},
		{"missing periods report the first", 5, []record.PeriodID{9, 8, 1}},
		{"missing location", 99, []record.PeriodID{1}},
		{"no periods", 5, nil},
		{"one hot period", 5, []record.PeriodID{4}},
		{"one cold period", 6, []record.PeriodID{1}},
		{"whole window", 5, []record.PeriodID{1, 2, 3, 4}},
		{"unsorted window", 6, []record.PeriodID{4, 1, 3, 2}},
	}
	for name, st := range fenceStores(t) {
		t.Run(name, func(t *testing.T) {
			type fenced struct {
				epoch uint64
				err   error
			}
			got := make([]fenced, len(cases))
			before := coldReads(st)
			for i, tc := range cases {
				got[i].epoch, got[i].err = st.Fence(tc.loc, tc.periods)
			}
			if after := coldReads(st); after != before {
				t.Fatalf("Fence read cold data: block cache reads %d -> %d", before, after)
			}
			for i, tc := range cases {
				_, epoch, unpin, err := st.Collect(tc.loc, tc.periods)
				if err == nil {
					unpin()
				}
				f := got[i]
				switch {
				case (f.err == nil) != (err == nil):
					t.Errorf("%s: Fence err %v, Collect err %v", tc.name, f.err, err)
				case err != nil && (f.err.Error() != err.Error() || !errors.Is(f.err, ErrNotFound)):
					t.Errorf("%s: Fence err %q, Collect err %q", tc.name, f.err, err)
				case err == nil && f.epoch != epoch:
					t.Errorf("%s: Fence epoch %d, Collect epoch %d", tc.name, f.epoch, epoch)
				}
			}
		})
	}
}

// TestFenceEpochIsRecordSetIdentity: the fence moves exactly when the
// record set behind a request changes — on a re-ingest of a named
// period, not on a tier move — and retention answers ErrNotFound until
// that re-ingest.
func TestFenceEpochIsRecordSetIdentity(t *testing.T) {
	window := []record.PeriodID{1, 2, 3, 4}
	stores := fenceStores(t)
	for _, name := range []string{"mem", "tiered"} {
		st := stores[name]
		t.Run(name, func(t *testing.T) {
			e0, err := st.Fence(5, window)
			if err != nil {
				t.Fatal(err)
			}
			if ts, ok := st.(*Tiered); ok {
				if _, err := ts.Freeze(0); err != nil {
					t.Fatal(err)
				}
				if e, err := st.Fence(5, window); err != nil || e != e0 {
					t.Fatalf("freeze moved the fence: %d -> %d (%v)", e0, e, err)
				}
			}

			rec, unpin, ok := st.Lookup(5, 1)
			if !ok {
				t.Fatal("period 1 missing before retention")
			}
			again, err := record.Unmarshal(mustMarshal(t, rec))
			unpin()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := st.RetainLatest(5, 3); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Fence(5, window); !errors.Is(err, ErrNotFound) {
				t.Fatalf("fence after retention: err %v, want ErrNotFound", err)
			}
			if _, err := st.Ingest(again); err != nil {
				t.Fatal(err)
			}
			e1, err := st.Fence(5, window)
			if err != nil {
				t.Fatal(err)
			}
			if e1 == e0 {
				t.Fatalf("re-ingest after retention left the fence at %d", e0)
			}
		})
	}
}

// TestFenceNamesRecordSet: a window's fence is the identity of the
// records it names. While one goroutine ingests unnamed periods at the
// window's location and another freezes, the fence never changes and
// Collect returns the same value. Retention plus a re-ingest of one
// named period strictly raises it, and emptying the location and
// refilling it never reissues a value seen before. Run by check.sh's
// race stress stage with -count=2.
func TestFenceNamesRecordSet(t *testing.T) {
	const loc = 5
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
			// fenceOf reads the window's fence through Fence and through
			// Collect, which must agree.
			fenceOf := func(periods []record.PeriodID) uint64 {
				t.Helper()
				f, err := st.Fence(loc, periods)
				if err != nil {
					t.Fatal(err)
				}
				_, c, unpin, err := st.Collect(loc, periods)
				if err != nil {
					t.Fatal(err)
				}
				unpin()
				if c != f {
					t.Fatalf("Fence %d, Collect %d", f, c)
				}
				return f
			}
			f0 := fenceOf(window)

			// Writers: unnamed periods at the same location, and (tiered)
			// a freezer moving records, named ones included, to the cold
			// tier under the readers' feet until the ingests are done.
			var wg sync.WaitGroup
			ingested, done := make(chan struct{}), make(chan struct{})
			errc := make(chan error, 2)
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer close(ingested)
				wrng := rand.New(rand.NewSource(30))
				for p := record.PeriodID(100); p < 300; p++ {
					if _, err := st.Ingest(testRecord(wrng, loc, p, 1024)); err != nil {
						errc <- err
						return
					}
				}
			}()
			if tiered != nil {
				wg.Add(1)
				go func() {
					defer wg.Done()
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
			go func() {
				wg.Wait()
				close(done)
			}()
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				if f := fenceOf(window); f != f0 {
					t.Fatalf("unnamed ingests or a freeze moved the fence: %d -> %d", f0, f)
				}
			}
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if f := fenceOf(window); f != f0 {
				t.Fatalf("fence after the writers: %d, want %d", f, f0)
			}

			// Retire the oldest named period and re-ingest it.
			if n, err := st.DropBefore(window[1]); err != nil || n != 1 {
				t.Fatalf("DropBefore dropped %d (%v), want 1", n, err)
			}
			if _, err := st.Ingest(testRecord(rng, loc, window[0], 1024)); err != nil {
				t.Fatal(err)
			}
			f1 := fenceOf(window)
			if f1 <= f0 {
				t.Fatalf("re-ingest of a named period: fence %d -> %d, want a rise", f0, f1)
			}

			// Empty the location (cold records too) and refill the
			// window: every fence is new.
			seen := f1
			for _, p := range st.Periods(loc) {
				seen = max(seen, fenceOf([]record.PeriodID{p}))
			}
			if tiered != nil {
				if _, err := tiered.Freeze(0); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := st.RetainLatest(loc, 0); err != nil {
				t.Fatal(err)
			}
			if got := st.Periods(loc); len(got) != 0 {
				t.Fatalf("location not empty after RetainLatest(0): %v", got)
			}
			for _, p := range window {
				if _, err := st.Ingest(testRecord(rng, loc, p, 1024)); err != nil {
					t.Fatal(err)
				}
				if f := fenceOf([]record.PeriodID{p}); f <= seen {
					t.Fatalf("refilled period %d reissued fence %d (highest before: %d)", p, f, seen)
				}
			}
			if f2 := fenceOf(window); f2 <= seen {
				t.Fatalf("refilled window fence %d, highest before %d", f2, seen)
			}
		})
	}
}

func mustMarshal(t *testing.T, rec *record.Record) []byte {
	t.Helper()
	blob, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestTieredFreezeRacingRetention: retention and re-ingest that land
// while a freeze is writing its segment win. The freeze must neither
// bring a dropped record back nor retire the re-ingested one in favour
// of the bits it picked. The segment's temp file appearing is the sign
// that the freeze has picked its victims.
func TestTieredFreezeRacingRetention(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	dir := t.TempDir()
	tiered, err := OpenTiered(dir, TieredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	const loc = 9
	for round := 0; round < 20; round++ {
		for p := record.PeriodID(1); p <= 8; p++ {
			if _, err := tiered.Ingest(testRecord(rng, loc, p, 1<<16)); err != nil {
				t.Fatalf("round %d: ingest p=%d: %v", round, p, err)
			}
		}
		fresh := testRecord(rng, loc, 1, 1<<16)
		done := make(chan error, 1)
		go func() {
			_, err := tiered.Freeze(0)
			done <- err
		}()
		for writing := false; !writing && len(done) == 0; {
			tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
			if err != nil {
				t.Fatal(err)
			}
			writing = len(tmps) > 0
		}
		if _, err := tiered.RetainLatest(loc, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := tiered.Ingest(fresh); err != nil {
			t.Fatalf("round %d: re-ingest after retention: %v", round, err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if got := tiered.Periods(loc); len(got) != 1 || got[0] != 1 {
			t.Fatalf("round %d: periods after retention and re-ingest = %v, want [1]", round, got)
		}
		rec, unpin, ok := tiered.Lookup(loc, 1)
		if !ok {
			t.Fatalf("round %d: re-ingested record missing", round)
		}
		same := bytes.Equal(mustMarshal(t, rec), mustMarshal(t, fresh))
		unpin()
		if !same {
			t.Fatalf("round %d: the freeze replaced the re-ingested record with the one it picked", round)
		}
		if _, err := tiered.RetainLatest(loc, 0); err != nil {
			t.Fatal(err)
		}
	}
}
