package central

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/synth"
	"ptm/internal/vhash"
)

func newServer(t *testing.T) *Server {
	t.Helper()
	s, err := NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustRecord(t *testing.T, loc vhash.LocationID, p record.PeriodID, m int) *record.Record {
	t.Helper()
	r, err := record.New(loc, p, m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewServerValidatesS(t *testing.T) {
	if _, err := NewServer(0); !errors.Is(err, vhash.ErrInvalidS) {
		t.Errorf("s=0 err = %v", err)
	}
	s := newServer(t)
	if s.S() != 3 {
		t.Errorf("S() = %d", s.S())
	}
}

func TestIngestAndEnumerate(t *testing.T) {
	s := newServer(t)
	for _, rec := range []*record.Record{
		mustRecord(t, 2, 1, 64),
		mustRecord(t, 1, 2, 64),
		mustRecord(t, 1, 1, 64),
	} {
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	locs := s.Locations()
	if len(locs) != 2 || locs[0] != 1 || locs[1] != 2 {
		t.Errorf("Locations = %v", locs)
	}
	ps := s.Periods(1)
	if len(ps) != 2 || ps[0] != 1 || ps[1] != 2 {
		t.Errorf("Periods(1) = %v", ps)
	}
	if got := s.Periods(99); len(got) != 0 {
		t.Errorf("Periods(unknown) = %v", got)
	}
}

func TestIngestRejectsDuplicatesAndNil(t *testing.T) {
	s := newServer(t)
	if err := s.Ingest(mustRecord(t, 1, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(mustRecord(t, 1, 1, 128)); !errors.Is(err, ErrDuplicate) {
		t.Errorf("dup err = %v", err)
	}
	if err := s.Ingest(nil); !errors.Is(err, record.ErrNilBitmap) {
		t.Errorf("nil err = %v", err)
	}
	if err := s.Ingest(&record.Record{Location: 1, Period: 9}); !errors.Is(err, record.ErrNilBitmap) {
		t.Errorf("nil bitmap err = %v", err)
	}
}

func TestQueriesEndToEnd(t *testing.T) {
	s := newServer(t)
	g, err := synth.NewGenerator(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := g.Pair(synth.PairConfig{
		LocA: 7, LocB: 8,
		VolumesA: []int{4000, 4500, 4200, 4800, 4100},
		VolumesB: []int{9000, 9500, 9200, 9800, 9100},
		NCommon:  800,
	})
	if err != nil {
		t.Fatal(err)
	}
	ingestSet := func(set *record.Set) {
		for i, b := range set.Bitmaps() {
			rec := &record.Record{Location: set.Location(), Period: set.Periods()[i], Bitmap: b}
			if err := s.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingestSet(pair.SetA)
	ingestSet(pair.SetB)

	periods := []record.PeriodID{1, 2, 3, 4, 5}

	vol, err := s.Volume(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(vol-4000) / 4000; re > 0.1 {
		t.Errorf("volume estimate %v vs 4000", vol)
	}

	pp, err := s.PointPersistent(7, periods)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(pp.Estimate-800) / 800; re > 0.15 {
		t.Errorf("point persistent %v vs 800", pp.Estimate)
	}

	p2p, err := s.PointToPointPersistent(7, 8, periods)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(p2p.Estimate-800) / 800; re > 0.15 {
		t.Errorf("p2p persistent %v vs 800", p2p.Estimate)
	}
}

func TestPointPersistentSliding(t *testing.T) {
	s := newServer(t)
	g, err := synth.NewGenerator(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A core fleet of 300 present in all six periods, plus 200 extra
	// "early" commuters present only in periods 1-3.
	core300, err := g.Identities(300)
	if err != nil {
		t.Fatal(err)
	}
	early200, err := g.Identities(200)
	if err != nil {
		t.Fatal(err)
	}
	const loc, m = 11, 1 << 13
	rng := struct{ next func() uint64 }{}
	seedCounter := uint64(0)
	rng.next = func() uint64 { seedCounter += 0x9e3779b97f4a7c15; return seedCounter * 0xbf58476d1ce4e5b9 }
	for p := record.PeriodID(1); p <= 6; p++ {
		rec := mustRecord(t, loc, p, m)
		for _, v := range core300 {
			rec.Bitmap.Set(v.Index(loc, m))
		}
		if p <= 3 {
			for _, v := range early200 {
				rec.Bitmap.Set(v.Index(loc, m))
			}
		}
		for i := 0; i < 3000; i++ { // transient noise
			rec.Bitmap.Set(rng.next())
		}
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	wins, err := s.PointPersistentSliding(loc, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(wins) != 4 {
		t.Fatalf("windows = %d, want 4", len(wins))
	}
	// Window [1,2,3] sees 500 persistent vehicles; later windows 300.
	if w := wins[0]; w.Estimate < 420 || w.Estimate > 580 {
		t.Errorf("window %v estimate = %v, want ~500", w.Periods, w.Estimate)
	}
	for _, w := range wins[1:] {
		if w.Estimate < 240 || w.Estimate > 370 {
			t.Errorf("window %v estimate = %v, want ~300", w.Periods, w.Estimate)
		}
	}

	if _, err := s.PointPersistentSliding(loc, 1); err == nil {
		t.Error("window=1 accepted")
	}
	if _, err := s.PointPersistentSliding(loc, 7); !errors.Is(err, ErrNotFound) {
		t.Errorf("oversized window err = %v", err)
	}
	if _, err := s.PointPersistentSliding(99, 2); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown loc err = %v", err)
	}
}

func TestQueryErrors(t *testing.T) {
	s := newServer(t)
	if err := s.Ingest(mustRecord(t, 1, 1, 64)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Volume(1, 9); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing period err = %v", err)
	}
	if _, err := s.Volume(9, 1); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing loc err = %v", err)
	}
	if _, err := s.PointPersistent(1, nil); !errors.Is(err, ErrNoPeriods) {
		t.Errorf("no periods err = %v", err)
	}
	if _, err := s.PointPersistent(1, []record.PeriodID{1, 2}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing record err = %v", err)
	}
	if _, err := s.PointToPointPersistent(1, 2, []record.PeriodID{1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing p2p record err = %v", err)
	}
}

// writeFile writes data to a fresh file and returns its path.
func writeFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "records.seg")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ptmsHeader is the 12-byte header of the retired PTMS snapshot stream
// (magic, version 1, record count 1). A file in that format is no longer
// a record set: it must fail as a bad segment magic.
var ptmsHeader = []byte{'P', 'T', 'M', 'S', 1, 0, 0, 0, 1, 0, 0, 0}

// snapshotFixture ingests three records over two locations and returns
// the server with its SaveTo bytes.
func snapshotFixture(t *testing.T) (*Server, []byte) {
	t.Helper()
	s := newServer(t)
	r1 := mustRecord(t, 3, 1, 128)
	r1.Bitmap.Set(5)
	r2 := mustRecord(t, 3, 2, 256)
	r2.Bitmap.Set(100)
	r3 := mustRecord(t, 4, 1, 64)
	for _, r := range []*record.Record{r1, r2, r3} {
		if err := s.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	return s, snapshotBytes(t, s)
}

// TestSnapshotRoundTrip: SaveTo writes a segment that LoadFrom restores
// exactly; the restored store re-saves to the same bytes and a reload
// is a no-op.
func TestSnapshotRoundTrip(t *testing.T) {
	s, canon := snapshotFixture(t)
	path := writeFile(t, canon)
	if _, err := store.OpenSegment(path, 0); err != nil {
		t.Fatalf("SaveTo output is not a segment: %v", err)
	}
	restored := newServer(t)
	if err := restored.LoadFrom(path); err != nil {
		t.Fatal(err)
	}
	if len(restored.Locations()) != 2 {
		t.Errorf("restored locations = %v", restored.Locations())
	}
	if got := restored.Periods(3); len(got) != 2 {
		t.Errorf("restored periods = %v", got)
	}
	if !bytes.Equal(snapshotBytes(t, restored), canon) {
		t.Fatal("restored store re-saves to different bytes")
	}
	vol1, err1 := s.Volume(3, 1)
	vol2, err2 := restored.Volume(3, 1)
	if err1 != nil || err2 != nil || vol1 != vol2 {
		t.Errorf("volume diverged after restore: %v/%v %v/%v", vol1, err1, vol2, err2)
	}
	// Idempotent: a reload skips every record already present.
	if err := restored.LoadFrom(path); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if st := restored.Stats(); st.Records != 3 {
		t.Fatalf("reload changed the census: %+v", st)
	}
}

// TestLoadFrom: every damaged or foreign file is rejected.
func TestLoadFrom(t *testing.T) {
	_, canon := snapshotFixture(t)
	torn := bytes.Clone(canon)
	torn[len(torn)-1] ^= 0xff // the last record's words

	for _, tc := range []struct {
		name    string
		data    []byte
		wantErr string
	}{
		{"garbage", []byte("short"), "shorter than the header"},
		{"truncated", canon[:len(canon)-1], "outside file"},
		{"PTMS header", ptmsHeader, "shorter than the header"},
		{"PTMS stream", append(bytes.Clone(ptmsHeader), make([]byte, 4096)...), "bad magic"},
		{"trailing bytes", append(bytes.Clone(canon), 0), "trailing bytes"},
		{"torn record", torn, "checksum mismatch"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := newServer(t).LoadFrom(writeFile(t, tc.data))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("LoadFrom err = %v, want one mentioning %q", err, tc.wantErr)
			}
		})
	}
}

// TestLoadFromPresentRecordsStaysOffHeap: loading a file whose records
// the store already holds maps it and skips them all, so the heap grows
// by the index, not by the file.
func TestLoadFromPresentRecordsStaysOffHeap(t *testing.T) {
	s := newServer(t)
	for p := 1; p <= 64; p++ {
		rec := mustRecord(t, 5, record.PeriodID(p), 1<<14)
		rec.Bitmap.Set(uint64(p))
		if err := s.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	path := writeFile(t, snapshotBytes(t, s))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if err := s.LoadFrom(path); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= uint64(fi.Size())/10 {
		t.Fatalf("loading %d present records allocated %d bytes, file is %d", 64, got, fi.Size())
	}
}

func TestConcurrentIngestAndQuery(t *testing.T) {
	s := newServer(t)
	done := make(chan error, 2)
	go func() {
		for p := record.PeriodID(1); p <= 50; p++ {
			if err := s.Ingest(mustRecord(t, 1, p, 64)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 50; i++ {
			s.Locations()
			s.Periods(1)
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
