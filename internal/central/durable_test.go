package central

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/synth"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

// walSegments lists the .wal segment files in dir, sorted by name (and
// therefore by segment index: names are zero-padded).
func walSegments(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".wal") {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(segs)
	return segs, nil
}

// truncateBy chops n bytes off the end of path, simulating a crash that
// left a torn tail.
func truncateBy(path string, n int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := fi.Size() - n
	if size < 0 {
		size = 0
	}
	return os.Truncate(path, size)
}

// walEntriesEnd walks a WAL segment's framing (a 16-byte header, then
// entries of a u32 length, a u32 CRC and the payload) and returns the
// offset where its entries end: the file's end, or the start of the
// fill behind them, whose length field reads above wal.MaxEntrySize.
func walEntriesEnd(path string) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	off := int64(16)
	for off+8 <= int64(len(data)) {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		if n > wal.MaxEntrySize || off+8+n > int64(len(data)) {
			break
		}
		off += 8 + n
	}
	return off, nil
}

// pairRecords builds a realistic two-location workload as a flat record
// list (deterministic: same seed, same bytes).
func pairRecords(t *testing.T) []*record.Record {
	t.Helper()
	g, err := synth.NewGenerator(11, 3)
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
	var recs []*record.Record
	for _, set := range []*record.Set{pair.SetA, pair.SetB} {
		for i, b := range set.Bitmaps() {
			recs = append(recs, &record.Record{
				Location: set.Location(), Period: set.Periods()[i], Bitmap: b,
			})
		}
	}
	return recs
}

// snapshotBytes serializes a store for bit-identity comparison.
func snapshotBytes(t *testing.T, s *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.SaveTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// estimates evaluates every estimator the transport exposes, for exact
// comparison between stores.
func estimates(t *testing.T, s *Server) []float64 {
	t.Helper()
	periods := []record.PeriodID{1, 2, 3, 4, 5}
	vol, err := s.Volume(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := s.PointPersistent(7, periods)
	if err != nil {
		t.Fatal(err)
	}
	p2p, err := s.PointToPointPersistent(7, 8, periods)
	if err != nil {
		t.Fatal(err)
	}
	od, err := s.ODVolume(7, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []float64{vol, pp.Estimate, p2p.Estimate, od}
}

func openDurable(t *testing.T, dir string, every int) *Durable {
	t.Helper()
	d, err := OpenDurable(dir, 3, wal.Options{SegmentSize: 1 << 16}, every)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDurableDifferential is the core bit-identity proof: ingesting
// through the WAL, crashing (abandoning the open handles), and
// recovering must yield a store whose snapshot bytes AND estimator
// outputs exactly equal the plain in-memory server fed the same
// records.
func TestDurableDifferential(t *testing.T) {
	recs := pairRecords(t)

	mem := newServer(t)
	for _, r := range recs {
		if err := mem.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	d := openDurable(t, dir, 0)
	for _, r := range recs {
		if err := d.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}

	// Live durable store matches memory bit for bit.
	wantSnap, wantEst := snapshotBytes(t, mem), estimates(t, mem)
	if got := snapshotBytes(t, d.Server); !bytes.Equal(got, wantSnap) {
		t.Fatal("durable snapshot differs from in-memory snapshot")
	}

	// "Crash": reopen the directory without closing; recovery replays
	// the log from scratch.
	recovered := openDurable(t, dir, 0)
	defer recovered.Close()
	if got := snapshotBytes(t, recovered.Server); !bytes.Equal(got, wantSnap) {
		t.Fatal("recovered snapshot differs from never-crashed snapshot")
	}
	gotEst := estimates(t, recovered.Server)
	for i := range wantEst {
		if gotEst[i] != wantEst[i] {
			t.Fatalf("estimator %d: recovered %v, want bit-identical %v", i, gotEst[i], wantEst[i])
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCheckpointRecovery: recovery through a checkpoint (plus
// newer segments) is equally bit-identical, and compaction actually
// dropped covered segments.
func TestDurableCheckpointRecovery(t *testing.T) {
	recs := pairRecords(t)
	mem := newServer(t)
	for _, r := range recs {
		if err := mem.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	d := openDurable(t, dir, 0)
	half := len(recs) / 2
	for _, r := range recs[:half] {
		if err := d.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[half:] {
		if err := d.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	preCrash := d.LogStats()
	if preCrash.Entries != 0 {
		// Entries counts what was on disk at Open; this run started
		// empty.
		t.Fatalf("unexpected pre-existing entries: %+v", preCrash)
	}

	recovered := openDurable(t, dir, 0)
	defer recovered.Close()
	if got, want := snapshotBytes(t, recovered.Server), snapshotBytes(t, mem); !bytes.Equal(got, want) {
		t.Fatal("checkpoint+replay recovery differs from in-memory store")
	}
	// The recovered log must hold fewer entries than were ingested:
	// the checkpoint swallowed the first half.
	if st := recovered.LogStats(); st.Entries >= int64(len(recs)) {
		t.Fatalf("log still holds %d entries after checkpoint of %d records", st.Entries, len(recs))
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableAutoCheckpoint: checkpointEvery compacts without being
// asked and the store stays correct across recovery.
func TestDurableAutoCheckpoint(t *testing.T) {
	recs := pairRecords(t)
	dir := t.TempDir()
	d := openDurable(t, dir, 3) // compact every 3 ingests
	for _, r := range recs {
		if err := d.Ingest(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := openDurable(t, dir, 3)
	defer recovered.Close()
	if got := len(recovered.Locations()); got != 2 {
		t.Fatalf("recovered %d locations, want 2", got)
	}
	st := recovered.Stats()
	if st.Records != len(recs) {
		t.Fatalf("recovered %d records, want %d", st.Records, len(recs))
	}
}

// TestDurableDuplicateHandling: duplicates are rejected before ever
// touching the log, and replayed duplicates (same record logged twice
// around a checkpoint) do not break recovery.
func TestDurableDuplicateHandling(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, 0)
	rec := mustRecord(t, 5, 1, 128)
	rec.Bitmap.Set(17)
	if err := d.Ingest(rec); err != nil {
		t.Fatal(err)
	}
	appends := d.LogStats().Appends
	if err := d.Ingest(mustRecord(t, 5, 1, 128)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate ingest err = %v", err)
	}
	if got := d.LogStats().Appends; got != appends {
		t.Fatalf("duplicate reached the log: %d appends, want %d", got, appends)
	}
	if err := d.Ingest(nil); !errors.Is(err, record.ErrNilBitmap) {
		t.Fatalf("nil ingest err = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableConcurrentDuplicateLogsOnce ingests one record from many
// goroutines at once, as a retried upload racing its original or a
// replica shipping a record back to its leader does: exactly one ingest
// stores it, every other answers ErrDuplicate, the record is visible by
// the time any of them answers, and the log holds one entry.
func TestDurableConcurrentDuplicateLogsOnce(t *testing.T) {
	d := openDurable(t, t.TempDir(), 0)
	const workers = 8
	start := make(chan struct{})
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec := mustRecord(t, 5, 1, 128)
		rec.Bitmap.Set(17)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			err := d.Ingest(rec)
			if err == nil || errors.Is(err, ErrDuplicate) {
				// Either answer reads as delivered: the record must
				// already be visible.
				if _, verr := d.Volume(5, 1); verr != nil {
					err = fmt.Errorf("ingest answered %v before the record was visible: %w", err, verr)
				}
			}
			errs <- err
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	stored := 0
	for err := range errs {
		switch {
		case err == nil:
			stored++
		case !errors.Is(err, ErrDuplicate):
			t.Fatal(err)
		}
	}
	if stored != 1 {
		t.Errorf("%d ingests stored the record, want 1", stored)
	}
	if got := d.LogStats().Appends; got != 1 {
		t.Errorf("%d log appends for one record, want 1", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableConcurrentIngest exercises the WAL group commit under the
// race detector with many uploading goroutines, then proves recovery.
func TestDurableConcurrentIngest(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, 0)
	const workers, per = 8, 12
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				rec, err := record.New(vhash.LocationID(w+1), record.PeriodID(i+1), 256)
				if err != nil {
					errs <- err
					return
				}
				rec.Bitmap.Set(uint64(w*per + i))
				if err := d.Ingest(rec); err != nil {
					errs <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := snapshotBytes(t, d.Server)

	recovered := openDurable(t, dir, 0)
	defer recovered.Close()
	if got := snapshotBytes(t, recovered.Server); !bytes.Equal(got, want) {
		t.Fatal("recovery after concurrent ingest differs")
	}
	if st := recovered.Stats(); st.Records != workers*per {
		t.Fatalf("recovered %d records, want %d", st.Records, workers*per)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableTornTailPrefix: cut the tail segment at an arbitrary point
// (a kill -9 mid-append) and require the recovered store to be a
// prefix-consistent subset: every record the cut spared is present and
// none are mangled.
func TestDurableTornTailPrefix(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, 0)
	var recs []*record.Record
	for i := 0; i < 10; i++ {
		rec := mustRecord(t, 3, record.PeriodID(i+1), 128)
		rec.Bitmap.Set(uint64(i))
		recs = append(recs, rec)
		if err := d.Ingest(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon d (crash) and cut 100 bytes into the last entry. The open
	// log's tail is fill past its entries, so the cut is measured from
	// the end of the entries, not of the file.
	segs, err := walSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	tail := segs[len(segs)-1]
	end, err := walEntriesEnd(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(tail, end-100); err != nil {
		t.Fatal(err)
	}
	recovered := openDurable(t, dir, 0)
	defer recovered.Close()
	got := recovered.Periods(3)
	if len(got) == 0 || len(got) >= 10 {
		t.Fatalf("torn tail recovered %d periods, want a strict non-empty prefix", len(got))
	}
	for i, p := range got {
		if p != record.PeriodID(i+1) {
			t.Fatalf("recovered periods %v are not a prefix", got)
		}
		if !recovered.Server.st.Contains(3, p) {
			t.Fatalf("period %d listed but not stored", p)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDurableZeroTailRecovers: a crash can leave a segment whose size
// covers pages the data never reached, which read back as zeros behind
// the last entry. Recovery cuts them off as a torn tail and keeps every
// record before them.
func TestDurableZeroTailRecovers(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, 0)
	for p := 1; p <= 3; p++ {
		if err := d.Ingest(mustRecord(t, 4, record.PeriodID(p), 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := walSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := openDurable(t, dir, 0)
	defer recovered.Close()
	if got := recovered.Periods(4); len(got) != 3 {
		t.Fatalf("recovered periods %v, want 3", got)
	}
	if err := recovered.Ingest(mustRecord(t, 4, 4, 128)); err != nil {
		t.Fatalf("ingest after recovering a zero tail: %v", err)
	}
}

// ingestGate is a store that parks the ingest of one location until
// released, holding that ingest between its WAL append and its apply.
type ingestGate struct {
	store.Store
	loc     vhash.LocationID
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *ingestGate) Ingest(rec *record.Record) (int, error) {
	if rec.Location == g.loc {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.Store.Ingest(rec)
}

// TestDurableCheckpointRacingIngest: a record appended to the log before
// a checkpoint seals it, but applied to the store only after the seal,
// must survive the checkpoint that drops its segment. The ingest is
// parked inside the store while Checkpoint runs; Checkpoint must wait
// for it rather than snapshot a store that lacks the record.
func TestDurableCheckpointRacingIngest(t *testing.T) {
	dir := t.TempDir()
	mem, err := store.NewMem(0)
	if err != nil {
		t.Fatal(err)
	}
	gate := &ingestGate{Store: mem, loc: 9, entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := NewServerWithStore(3, gate)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurableServer(dir, srv, wal.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Ingest(mustRecord(t, 1, 1, 128)); err != nil {
		t.Fatal(err)
	}
	rec := mustRecord(t, 9, 1, 128)
	rec.Bitmap.Set(42)
	ingested := make(chan error, 1)
	go func() { ingested <- d.Ingest(rec) }()
	<-gate.entered // rec is in the log, not yet in the store

	checkpointed := make(chan error, 1)
	go func() { checkpointed <- d.Checkpoint() }()
	select {
	case err := <-checkpointed:
		// The checkpoint finished while rec was still unapplied: the
		// segment holding rec is gone and the snapshot lacks it.
		close(gate.release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(200 * time.Millisecond):
		// The checkpoint is waiting for the parked ingest, as it must.
		close(gate.release)
		if err := <-checkpointed; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := openDurable(t, dir, 0)
	defer recovered.Close()
	if !recovered.Server.st.Contains(9, 1) {
		t.Fatal("acked record lost: its log segment was dropped by a checkpoint whose snapshot lacks it")
	}
	if got := recovered.Stats().Records; got != 2 {
		t.Fatalf("recovered %d records, want 2", got)
	}
}

// TestDurableEmptyStoreCheckpoint: a store that retention emptied still
// checkpoints — to a zero-record segment — and so still drops the log
// prefix that would otherwise resurrect the dropped records.
func TestDurableEmptyStoreCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir, 0)
	for p := 1; p <= 5; p++ {
		if err := d.Ingest(mustRecord(t, 2, record.PeriodID(p), 128)); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := d.DropBefore(100); err != nil || n != 5 {
		t.Fatalf("DropBefore = %d, %v", n, err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint of an empty store: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	ckpts, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if err != nil || len(ckpts) != 1 {
		t.Fatalf("checkpoints = %v, %v", ckpts, err)
	}
	seg, err := store.OpenSegment(ckpts[0], 0)
	if err != nil {
		t.Fatalf("empty checkpoint is not a segment: %v", err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := openDurable(t, dir, 0)
	defer recovered.Close()
	if st := recovered.Stats(); st.Records != 0 {
		t.Fatalf("dropped records came back: %+v", st)
	}
	if st := recovered.LogStats(); st.Entries != 0 {
		t.Fatalf("log prefix survived the checkpoint: %d entries", st.Entries)
	}
}

// TestDurableBatchCommitsOnLastRecord pins Ingest's batch contract:
// records marked "more follow" are logged without a
// sync, and the batch's unmarked last record costs exactly one — on
// every way it can end: appended, rejected as a duplicate, or rejected
// as invalid before it reaches the log.
func TestDurableBatchCommitsOnLastRecord(t *testing.T) {
	d := openDurable(t, t.TempDir(), 0)
	defer d.Close()
	period := record.PeriodID(0)
	fresh := func() *record.Record {
		period++
		return mustRecord(t, 5, period, 64)
	}
	stored := fresh()
	if err := d.Ingest(stored); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		last *record.Record
		want error
	}{
		{"appended", fresh(), nil},
		{"duplicate", stored, ErrDuplicate},
		{"invalid", &record.Record{Location: 5, Period: 999}, record.ErrNilBitmap},
	} {
		before := d.LogStats()
		for i := 0; i < 7; i++ {
			rec := fresh()
			rec.MarkMore()
			if err := d.Ingest(rec); err != nil {
				t.Fatalf("%s: marked record %d: %v", tc.name, i, err)
			}
			if rec.TakeMore() {
				t.Fatalf("%s: Ingest left the batch mark on a stored record", tc.name)
			}
		}
		if got := d.LogStats().Syncs - before.Syncs; got != 0 {
			t.Fatalf("%s: %d syncs before the batch's last record, want 0", tc.name, got)
		}
		if err := d.Ingest(tc.last); !errors.Is(err, tc.want) {
			t.Fatalf("%s: last record err = %v, want %v", tc.name, err, tc.want)
		}
		after := d.LogStats()
		if got := after.Syncs - before.Syncs; got != 1 {
			t.Fatalf("%s: batch cost %d syncs, want 1", tc.name, got)
		}
		wantAppends := int64(7)
		if tc.want == nil {
			wantAppends = 8
		}
		if got := after.Appends - before.Appends; got != wantAppends {
			t.Fatalf("%s: batch cost %d appends, want %d", tc.name, got, wantAppends)
		}
	}
	// A last record with nothing pending costs no sync at all.
	before := d.LogStats().Syncs
	if err := d.Ingest(stored); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("lone duplicate err = %v", err)
	}
	if got := d.LogStats().Syncs - before; got != 0 {
		t.Fatalf("a duplicate with nothing pending cost %d syncs", got)
	}
}

// TestDurableFailedCommitOutranksDuplicate: when the batch's closing
// sync fails, the last record's answer is that failure even if the
// record itself is a duplicate — a duplicate reads as "delivered", and
// the batch is not durable.
func TestDurableFailedCommitOutranksDuplicate(t *testing.T) {
	d := openDurable(t, t.TempDir(), 0)
	stored := mustRecord(t, 6, 1, 64)
	if err := d.Ingest(stored); err != nil {
		t.Fatal(err)
	}
	marked := mustRecord(t, 6, 2, 64)
	marked.MarkMore()
	if err := d.Ingest(marked); err != nil {
		t.Fatal(err)
	}
	if err := d.Log().Close(); err != nil {
		t.Fatal(err)
	}
	err := d.Ingest(stored)
	if err == nil || errors.Is(err, ErrDuplicate) || !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("closing duplicate over a failed commit: err = %v, want the commit failure", err)
	}
}

// TestDurableBatchPublishesOnCommit: a batch's records enter the store
// only once the sync that makes them durable has completed, and never
// when the batch cannot commit.
func TestDurableBatchPublishesOnCommit(t *testing.T) {
	batch := func() []*record.Record {
		recs := make([]*record.Record, 8)
		for i := range recs {
			recs[i] = mustRecord(t, 5, record.PeriodID(i+1), 64)
			recs[i].Bitmap.Set(uint64(i))
		}
		for _, rec := range recs[:7] {
			rec.MarkMore()
		}
		return recs
	}
	visible := func(d *Durable) int {
		n := 0
		for p := 1; p <= 8; p++ {
			switch _, err := d.Volume(5, record.PeriodID(p)); {
			case err == nil:
				n++
			case !errors.Is(err, ErrNotFound):
				t.Fatal(err)
			}
		}
		return n
	}

	t.Run("committed", func(t *testing.T) {
		d := openDurable(t, t.TempDir(), 0)
		defer d.Close()
		recs := batch()
		for i, rec := range recs[:7] {
			if err := d.Ingest(rec); err != nil {
				t.Fatal(err)
			}
			if n := visible(d); n != 0 {
				t.Fatalf("%d records visible after %d marked ones were logged, want 0", n, i+1)
			}
		}
		if got := d.LogStats().Syncs; got != 0 {
			t.Fatalf("%d syncs before the closing record, want 0", got)
		}
		if err := d.Ingest(recs[7]); err != nil {
			t.Fatal(err)
		}
		if n := visible(d); n != 8 {
			t.Fatalf("%d of 8 records visible after the batch committed", n)
		}
	})

	t.Run("failed rotation", func(t *testing.T) {
		recs := batch()
		blob, err := recs[0].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		// Seven entries fit the first segment; the eighth rotates.
		entry := int64(8 + len(blob))
		dir := t.TempDir()
		d, err := OpenDurable(dir, 3, wal.Options{SegmentSize: 16 + 7*entry + entry/2}, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		for _, rec := range recs[:7] {
			if err := d.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
		_, active := d.Log().Segments()
		next := filepath.Join(dir, fmt.Sprintf("%018d.wal", active+1))
		if err := os.WriteFile(next, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := d.Ingest(recs[7]); err == nil {
			t.Fatal("closing record whose rotation failed was acked")
		}
		if err := os.Remove(next); err != nil {
			t.Fatal(err)
		}
		if err := d.Commit(); err == nil {
			t.Fatal("commit over a poisoned log succeeded")
		}
		if err := d.Checkpoint(); err == nil {
			t.Fatal("checkpoint over a poisoned log succeeded")
		}
		if n := visible(d); n != 0 {
			t.Fatalf("%d records of a batch that never committed are visible", n)
		}
	})
}
