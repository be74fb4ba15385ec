package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// ingestAll feeds recs (cloned order-independently) into a store.
func ingestAll(t *testing.T, s Store, recs []*record.Record) {
	t.Helper()
	for _, rec := range recs {
		if _, err := s.Ingest(rec); err != nil {
			t.Fatalf("Ingest(loc=%d, p=%d): %v", rec.Location, rec.Period, err)
		}
	}
}

// snapshotBytes serializes a store the way central.SaveTo does: one
// segment of every record in (location, period) order.
func snapshotBytes(t *testing.T, s Store) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := s.Sorted(func(recs []*record.Record) error {
		return WriteSegment(&out, recs)
	}); err != nil {
		t.Fatalf("Sorted: %v", err)
	}
	return out.Bytes()
}

// collectSet assembles a record.Set through the Store interface.
func collectSet(t *testing.T, s Store, loc vhash.LocationID, periods []record.PeriodID) (*record.Set, func()) {
	t.Helper()
	recs, _, unpin, err := s.Collect(loc, periods)
	if err != nil {
		t.Fatalf("Collect(loc=%d): %v", loc, err)
	}
	set, err := record.NewSet(recs)
	if err != nil {
		t.Fatalf("NewSet: %v", err)
	}
	return set, unpin
}

// TestDifferentialStores is the tentpole's acceptance test at the store
// level: the same data set through Mem, Tiered (fully frozen), and the
// read-only Mmap store yields byte-identical snapshots and bit-identical
// estimates.
func TestDifferentialStores(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := testRecords(rng, 4, 6)
	periods := []record.PeriodID{1, 2, 3, 4, 5, 6}

	mem, err := NewMem(0)
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, mem, recs)

	dir := t.TempDir()
	tiered, err := OpenTiered(dir, TieredOptions{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, tiered, recs)
	frozen, err := tiered.Freeze(0)
	if err != nil {
		t.Fatalf("Freeze: %v", err)
	}
	if frozen != len(recs) {
		t.Fatalf("froze %d records, want %d", frozen, len(recs))
	}
	if st := tiered.Stats(); st.HotRecords != 0 || st.ColdRecords != len(recs) {
		t.Fatalf("after full freeze: %+v", st)
	}

	memSnap := snapshotBytes(t, mem)
	tieredSnap := snapshotBytes(t, tiered)
	if !bytes.Equal(memSnap, tieredSnap) {
		t.Fatal("tiered snapshot differs from resident snapshot")
	}

	// Estimates: resident vs cold-tier operands, bit for bit.
	type est struct{ point, p2p float64 }
	estimates := func(s Store) []est {
		var out []est
		for loc := vhash.LocationID(1); loc <= 4; loc++ {
			set, unpin := collectSet(t, s, loc, periods)
			pr, err := core.EstimatePointOpts(set, core.SplitHalves)
			if err != nil {
				t.Fatalf("EstimatePoint(loc=%d): %v", loc, err)
			}
			other := loc%4 + 1
			setB, unpinB := collectSet(t, s, other, periods)
			p2p, err := core.EstimatePointToPoint(set, setB, 1)
			if err != nil {
				t.Fatalf("EstimatePointToPoint(%d,%d): %v", loc, other, err)
			}
			unpinB()
			unpin()
			out = append(out, est{point: pr.Estimate, p2p: p2p.Estimate})
		}
		return out
	}
	want := estimates(mem)
	if got := estimates(tiered); !equalEsts(got, want) {
		t.Fatalf("tiered estimates differ:\n got %v\nwant %v", got, want)
	}
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}

	// The read-only store over the same segment directory.
	mm, err := OpenMmap(dir, 1<<20)
	if err != nil {
		t.Fatalf("OpenMmap: %v", err)
	}
	defer mm.Close()
	if got := estimates(mm); !equalEsts(got, want) {
		t.Fatalf("mmap estimates differ:\n got %v\nwant %v", got, want)
	}
	if !bytes.Equal(snapshotBytes(t, mm), memSnap) {
		t.Fatal("mmap snapshot differs from resident snapshot")
	}
	if _, err := mm.Ingest(recs[0]); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only Ingest: %v", err)
	}
	if _, err := mm.DropBefore(100); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("read-only DropBefore: %v", err)
	}
}

func equalEsts[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTieredBudgetFreeze proves the automatic freeze trigger: ingesting
// far past the resident budget keeps the hot tier bounded and every
// record queryable, with epochs untouched by migration.
func TestTieredBudgetFreeze(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const budget = 32 * 1024 // bytes
	tiered, err := OpenTiered(t.TempDir(), TieredOptions{ResidentBudget: budget, CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	const loc, nPeriods = vhash.LocationID(9), 64
	var periods []record.PeriodID
	for p := 1; p <= nPeriods; p++ {
		rec := testRecord(rng, loc, record.PeriodID(p), 32*1024) // 4 KiB each
		if _, err := tiered.Ingest(rec); err != nil {
			t.Fatalf("Ingest p=%d: %v", p, err)
		}
		periods = append(periods, record.PeriodID(p))
	}
	st := tiered.Stats()
	if st.HotBits/8 > budget {
		t.Fatalf("hot tier %d bytes exceeds budget %d", st.HotBits/8, budget)
	}
	if st.ColdRecords == 0 || st.Segments == 0 {
		t.Fatalf("no freezes happened: %+v", st)
	}
	if st.Records != nPeriods {
		t.Fatalf("records = %d, want %d", st.Records, nPeriods)
	}

	_, epoch, unpin, err := tiered.Collect(loc, periods)
	if err != nil {
		t.Fatalf("Collect across tiers: %v", err)
	}
	unpin()
	if epoch != nPeriods {
		t.Fatalf("epoch = %d, want %d (one bump per ingest, none per freeze)", epoch, nPeriods)
	}
	if cs := tiered.CacheStats(); cs.Misses == 0 {
		t.Fatalf("cold reads never touched the block cache: %+v", cs)
	}

	// Duplicates are rejected from both tiers.
	if _, err := tiered.Ingest(testRecord(rng, loc, 1, 64)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("cold duplicate: %v", err)
	}
	hotP := record.PeriodID(nPeriods) // newest period is still hot
	if _, err := tiered.Ingest(testRecord(rng, loc, hotP, 64)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("hot duplicate: %v", err)
	}
}

// TestTieredRetentionReleasesDisk is the satellite's guarantee: dropping
// periods drops whole segment files, not just index entries.
func TestTieredRetentionReleasesDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dir := t.TempDir()
	tiered, err := OpenTiered(dir, TieredOptions{CacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	// Two freeze batches -> two segments with disjoint period ranges.
	for p := 1; p <= 4; p++ {
		if _, err := tiered.Ingest(testRecord(rng, 1, record.PeriodID(p), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tiered.Freeze(0); err != nil {
		t.Fatal(err)
	}
	for p := 5; p <= 8; p++ {
		if _, err := tiered.Ingest(testRecord(rng, 1, record.PeriodID(p), 4096)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tiered.Freeze(0); err != nil {
		t.Fatal(err)
	}
	if n := countSegFiles(t, dir); n != 2 {
		t.Fatalf("segment files = %d, want 2", n)
	}
	before := dirBytes(t, dir)

	// Pin a record from the doomed segment: deletion must not break the
	// in-flight reader.
	rec, unpin, ok := tiered.Lookup(1, 2)
	if !ok {
		t.Fatal("Lookup(1,2) missing")
	}
	wantOnes := rec.Bitmap.Ones()

	dropped, err := tiered.DropBefore(5)
	if err != nil {
		t.Fatalf("DropBefore: %v", err)
	}
	if dropped != 4 {
		t.Fatalf("dropped = %d, want 4", dropped)
	}
	if n := countSegFiles(t, dir); n != 1 {
		t.Fatalf("segment files after retention = %d, want 1", n)
	}
	if after := dirBytes(t, dir); after >= before {
		t.Fatalf("retention did not release disk: %d -> %d bytes", before, after)
	}
	// The pinned reader still streams the unlinked segment's pages.
	if got := rec.Bitmap.Ones(); got != wantOnes {
		t.Fatalf("pinned record changed under retention: %d -> %d ones", wantOnes, got)
	}
	unpin()

	if _, _, ok := tiered.Lookup(1, 2); ok {
		t.Fatal("dropped record still visible")
	}
	if st := tiered.Stats(); st.Records != 4 || st.Segments != 1 {
		t.Fatalf("after retention: %+v", st)
	}

	// Dropping the rest removes the last segment file too.
	if _, err := tiered.RetainLatest(1, 0); err != nil {
		t.Fatal(err)
	}
	if n := countSegFiles(t, dir); n != 0 {
		t.Fatalf("segment files after full retention = %d, want 0", n)
	}
}

func countSegFiles(t *testing.T, dir string) int {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, de := range des {
		if filepath.Ext(de.Name()) == ".seg" {
			n++
		}
	}
	return n
}

func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, de := range des {
		fi, err := de.Info()
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestTieredReopen proves the cold tier durable: a reopened store
// serves the frozen records (the hot tier's durability belongs to the
// WAL, one layer up).
func TestTieredReopen(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dir := t.TempDir()
	recs := testRecords(rng, 2, 4)

	tiered, err := OpenTiered(dir, TieredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ingestAll(t, tiered, recs)
	if _, err := tiered.Freeze(0); err != nil {
		t.Fatal(err)
	}
	snap := snapshotBytes(t, tiered)
	if err := tiered.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := tiered.Ingest(recs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Ingest after Close: %v", err)
	}

	reopened, err := OpenTiered(dir, TieredOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer reopened.Close()
	if !bytes.Equal(snapshotBytes(t, reopened), snap) {
		t.Fatal("reopened store differs")
	}
	// Replay-style re-ingest of a frozen record is a duplicate.
	if _, err := reopened.Ingest(recs[0]); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("re-ingest of cold record: %v", err)
	}
}

// TestTieredConcurrentSoak drives ingest, cross-tier queries, freezes,
// cold reads through a tiny (eviction-heavy) cache, and retention all
// at once. Run under -race this is the soak the issue asks for; the
// invariant checked is weaker than the differential tests (no torn
// reads, no panics, every complete Collect internally consistent).
func TestTieredConcurrentSoak(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	tiered, err := OpenTiered(t.TempDir(), TieredOptions{
		ResidentBudget: 16 * 1024,
		CacheBytes:     8 * 1024, // a handful of spans: constant eviction
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()

	const nLocs = 4
	const periodsPerLoc = 48
	// Pre-seed so queriers have work from the start.
	for l := 1; l <= nLocs; l++ {
		for p := 1; p <= 8; p++ {
			if _, err := tiered.Ingest(testRecord(rng, vhash.LocationID(l), record.PeriodID(p), 8192)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var ingWg, loopWg sync.WaitGroup
	stop := make(chan struct{})

	// Ingesters: one per location, fresh periods (triggers freezes).
	for l := 1; l <= nLocs; l++ {
		ingWg.Add(1)
		go func(loc vhash.LocationID, seed int64) {
			defer ingWg.Done()
			rng := rand.New(rand.NewSource(seed))
			for p := 9; p <= periodsPerLoc; p++ {
				if _, err := tiered.Ingest(testRecord(rng, loc, record.PeriodID(p), 8192)); err != nil && !errors.Is(err, ErrDuplicate) {
					t.Errorf("ingest loc=%d p=%d: %v", loc, p, err)
					return
				}
			}
		}(vhash.LocationID(l), int64(l))
	}

	// Queriers: cross-tier Collects and estimator runs until stop.
	for q := 0; q < 4; q++ {
		loopWg.Add(1)
		go func(seed int64) {
			defer loopWg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				loc := vhash.LocationID(rng.Intn(nLocs) + 1)
				periods := tiered.Periods(loc)
				if len(periods) < 2 {
					continue
				}
				recs, _, unpin, err := tiered.Collect(loc, periods[:2])
				if err != nil {
					// Retention may have raced the period listing.
					if errors.Is(err, ErrNotFound) {
						continue
					}
					t.Errorf("Collect: %v", err)
					return
				}
				set, err := record.NewSet(recs)
				if err == nil {
					if _, err := core.EstimatePointOpts(set, core.SplitHalves); err != nil {
						t.Errorf("estimate: %v", err)
					}
				}
				unpin()
			}
		}(int64(q))
	}

	// Retention: repeatedly drop the oldest periods (deleting segments
	// out from under the queriers and the cache).
	loopWg.Add(1)
	go func() {
		defer loopWg.Done()
		cut := record.PeriodID(2)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tiered.DropBefore(cut); err != nil {
				t.Errorf("DropBefore: %v", err)
				return
			}
			if cut < periodsPerLoc/2 {
				cut++
			}
		}
	}()

	// Ingesters finish on their own; then wind down the loops.
	ingWg.Wait()
	close(stop)
	loopWg.Wait()

	if !allIngested(tiered, nLocs, periodsPerLoc) {
		t.Fatal("an ingested record went missing")
	}

	// Post-soak coherence: every surviving record readable and CRC-clean.
	if err := tiered.Sorted(func(recs []*record.Record) error {
		for _, rec := range recs {
			_ = rec.Bitmap.Ones()
		}
		return nil
	}); err != nil {
		t.Fatalf("post-soak scan: %v", err)
	}
}

// allIngested reports whether every location has its newest period.
func allIngested(s Store, nLocs, lastPeriod int) bool {
	for l := 1; l <= nLocs; l++ {
		if _, _, ok := s.Lookup(vhash.LocationID(l), record.PeriodID(lastPeriod)); !ok {
			return false
		}
	}
	return true
}

// TestTieredFreezeIsEpochNeutral pins down the estimate-cache contract:
// migrating records must not change what Collect returns — neither the
// epoch nor a single bit.
func TestTieredFreezeIsEpochNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tiered, err := OpenTiered(t.TempDir(), TieredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tiered.Close()
	periods := []record.PeriodID{1, 2, 3}
	for _, p := range periods {
		if _, err := tiered.Ingest(testRecord(rng, 5, p, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	before, epochBefore, unpinB, err := tiered.Collect(5, periods)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]int, len(before))
	for i, r := range before {
		ones[i] = r.Bitmap.Ones()
	}
	unpinB()

	if _, err := tiered.Freeze(0); err != nil {
		t.Fatal(err)
	}
	after, epochAfter, unpinA, err := tiered.Collect(5, periods)
	if err != nil {
		t.Fatal(err)
	}
	defer unpinA()
	if epochAfter != epochBefore {
		t.Fatalf("freeze changed the epoch: %d -> %d", epochBefore, epochAfter)
	}
	for i, r := range after {
		if r.Bitmap.Ones() != ones[i] {
			t.Fatalf("freeze changed record %d", i)
		}
	}
}

// TestMmapRejectsNonSegmentDir covers OpenMmap's error paths.
func TestMmapRejectsNonSegmentDir(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, segFileName(1)), []byte("not a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMmap(dir, 0); err == nil {
		t.Fatal("corrupt segment dir accepted")
	}
}
