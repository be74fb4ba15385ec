package central

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

// seededRecord builds a deterministic ~25%-dense record.
func seededRecord(t testing.TB, rng *rand.Rand, loc vhash.LocationID, p record.PeriodID, m int) *record.Record {
	t.Helper()
	rec, err := record.New(loc, p, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < m/4; i++ {
		rec.Bitmap.Set(rng.Uint64())
	}
	return rec
}

// newTieredServer mounts a Server over a tiered store rooted in a temp
// dir. budget <= 0 disables automatic freezing.
func newTieredServer(t *testing.T, budget int64) (*Server, *store.Tiered) {
	t.Helper()
	ts, err := store.OpenTiered(t.TempDir(), store.TieredOptions{ResidentBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithStore(3, ts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		//ptmlint:allow errdrop -- test teardown; the assertions already ran
		_ = srv.CloseStore()
	})
	return srv, ts
}

// TestServerTieredDifferential: the same ingest stream through a
// resident server and a tiered server (with a budget small enough to
// force freezes mid-stream) must yield byte-identical snapshots and
// bit-identical estimates — the query plane cannot tell the tiers apart.
func TestServerTieredDifferential(t *testing.T) {
	mem := newServer(t)
	tiered, ts := newTieredServer(t, 4<<10) // 4 KiB: freezes every few records

	const m = 4096
	var locs []vhash.LocationID
	var periods []record.PeriodID
	for loc := 1; loc <= 3; loc++ {
		locs = append(locs, vhash.LocationID(loc))
	}
	for p := 1; p <= 8; p++ {
		periods = append(periods, record.PeriodID(p))
	}
	for _, loc := range locs {
		rng := rand.New(rand.NewSource(int64(loc)))
		for _, p := range periods {
			a := seededRecord(t, rng, loc, p, m)
			b := &record.Record{Location: a.Location, Period: a.Period, Bitmap: a.Bitmap.Clone()}
			if err := mem.Ingest(a); err != nil {
				t.Fatal(err)
			}
			if err := tiered.Ingest(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := ts.Stats(); st.Segments == 0 || st.ColdRecords == 0 {
		t.Fatalf("budget never froze anything: %+v", st)
	}

	var memSnap, tieredSnap bytes.Buffer
	if err := mem.SaveTo(&memSnap); err != nil {
		t.Fatal(err)
	}
	if err := tiered.SaveTo(&tieredSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memSnap.Bytes(), tieredSnap.Bytes()) {
		t.Fatal("snapshot bytes differ between resident and tiered servers")
	}

	for _, loc := range locs {
		wantPoint, err := mem.PointPersistent(loc, periods)
		if err != nil {
			t.Fatal(err)
		}
		gotPoint, err := tiered.PointPersistent(loc, periods)
		if err != nil {
			t.Fatal(err)
		}
		if *wantPoint != *gotPoint {
			t.Fatalf("loc %d point estimate differs: %+v vs %+v", loc, wantPoint, gotPoint)
		}
		wantVol, err := mem.Volume(loc, periods[0])
		if err != nil {
			t.Fatal(err)
		}
		gotVol, err := tiered.Volume(loc, periods[0])
		if err != nil {
			t.Fatal(err)
		}
		if wantVol != gotVol {
			t.Fatalf("loc %d volume differs: %v vs %v", loc, wantVol, gotVol)
		}
	}
	wantP2P, err := mem.PointToPointPersistent(1, 2, periods)
	if err != nil {
		t.Fatal(err)
	}
	gotP2P, err := tiered.PointToPointPersistent(1, 2, periods)
	if err != nil {
		t.Fatal(err)
	}
	if *wantP2P != *gotP2P {
		t.Fatalf("p2p estimate differs: %+v vs %+v", wantP2P, gotP2P)
	}

	// Tier counters surface through the server's stats.
	st := tiered.Stats()
	if st.ColdRecords == 0 || st.Segments == 0 || st.HotRecords+st.ColdRecords != st.Records {
		t.Fatalf("tier stats inconsistent: %+v", st)
	}
}

// TestLoadFromSegment: a cold-tier segment written by WriteSegment
// restores through LoadFrom like a SaveTo file; a second load of the
// same file is a no-op (restore is idempotent).
func TestLoadFromSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var recs []*record.Record
	for p := 1; p <= 4; p++ {
		recs = append(recs, seededRecord(t, rng, 9, record.PeriodID(p), 1024))
	}
	var seg bytes.Buffer
	if err := store.WriteSegment(&seg, recs); err != nil {
		t.Fatal(err)
	}
	path := writeFile(t, seg.Bytes())

	s := newServer(t)
	if err := s.LoadFrom(path); err != nil {
		t.Fatalf("LoadFrom(segment): %v", err)
	}
	if st := s.Stats(); st.Records != len(recs) {
		t.Fatalf("restored %d records, want %d", st.Records, len(recs))
	}
	for _, rec := range recs {
		got, err := s.Volume(rec.Location, rec.Period)
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			t.Fatalf("restored record loc=%d p=%d estimates zero", rec.Location, rec.Period)
		}
	}
	// Idempotent: duplicates are skipped, not fatal.
	if err := s.LoadFrom(path); err != nil {
		t.Fatalf("second LoadFrom(segment): %v", err)
	}
	if st := s.Stats(); st.Records != len(recs) {
		t.Fatalf("idempotent reload changed the census: %+v", st)
	}

	// A corrupt segment still fails loudly.
	torn := bytes.Clone(seg.Bytes())
	torn[len(torn)-1] ^= 0xff
	if err := newServer(t).LoadFrom(writeFile(t, torn)); err == nil {
		t.Fatal("corrupt segment accepted")
	}
}

// TestDurableOverTiered: a WAL-backed server over a tiered store
// recovers exactly, even when part of the data set is frozen cold —
// replay hits the cold duplicate check and skips, never double-ingests.
func TestDurableOverTiered(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	coldDir := filepath.Join(t.TempDir(), "cold")
	rng := rand.New(rand.NewSource(11))

	open := func() *Durable {
		ts, err := store.OpenTiered(coldDir, store.TieredOptions{ResidentBudget: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServerWithStore(3, ts)
		if err != nil {
			t.Fatal(err)
		}
		d, err := OpenDurableServer(walDir, srv, wal.Options{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	d := open()
	var want []*record.Record
	for p := 1; p <= 12; p++ {
		rec := seededRecord(t, rng, 4, record.PeriodID(p), 4096)
		want = append(want, rec)
		if err := d.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	if st := d.Stats(); st.Segments == 0 {
		t.Fatalf("budget never froze: %+v", st)
	}
	wantEst, err := d.PointPersistent(4, []record.PeriodID{1, 5, 9, 12})
	if err != nil {
		t.Fatal(err)
	}
	var wantSnap bytes.Buffer
	if err := d.SaveTo(&wantSnap); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.CloseStore(); err != nil {
		t.Fatal(err)
	}

	// Reopen: cold segments are adopted from disk, the checkpoint's
	// duplicates of them are skipped, hot records replay.
	re := open()
	defer func() {
		//ptmlint:allow errdrop -- test teardown; the assertions already ran
		_ = re.Close()
		//ptmlint:allow errdrop -- test teardown; the assertions already ran
		_ = re.CloseStore()
	}()
	if st := re.Stats(); st.Records != len(want) {
		t.Fatalf("recovered %d records, want %d (%+v)", st.Records, len(want), st)
	}
	gotEst, err := re.PointPersistent(4, []record.PeriodID{1, 5, 9, 12})
	if err != nil {
		t.Fatal(err)
	}
	if *gotEst != *wantEst {
		t.Fatalf("recovered estimate differs: %+v vs %+v", gotEst, wantEst)
	}
	var gotSnap bytes.Buffer
	if err := re.SaveTo(&gotSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSnap.Bytes(), gotSnap.Bytes()) {
		t.Fatal("recovered snapshot differs byte-for-byte")
	}
	// Re-ingesting an already-cold record is still a duplicate.
	if err := re.Ingest(want[0]); err == nil {
		t.Fatal("duplicate of a cold record accepted after recovery")
	}
}

// TestMmapServerReadOnly: a server mounted read-only over a segment
// directory answers queries but rejects mutations.
func TestMmapServerReadOnly(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(13))
	var recs []*record.Record
	for p := 1; p <= 4; p++ {
		recs = append(recs, seededRecord(t, rng, 2, record.PeriodID(p), 2048))
	}
	var seg bytes.Buffer
	if err := store.WriteSegment(&seg, recs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "000000000000000001.seg"), seg.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	ms, err := store.OpenMmap(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithStore(3, ms)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		//ptmlint:allow errdrop -- test teardown; the assertions already ran
		_ = srv.CloseStore()
	}()

	if got := srv.Periods(2); len(got) != 4 {
		t.Fatalf("periods = %v", got)
	}
	if _, err := srv.PointPersistent(2, []record.PeriodID{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Ingest(recs[0]); err == nil {
		t.Fatal("read-only server accepted an ingest")
	}
}
