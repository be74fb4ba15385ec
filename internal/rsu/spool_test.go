package rsu

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

func spoolRecord(t *testing.T, loc vhash.LocationID, p record.PeriodID) *record.Record {
	t.Helper()
	rec, err := record.New(loc, p, 64)
	if err != nil {
		t.Fatal(err)
	}
	rec.Bitmap.Set(uint64(p) % 64)
	return rec
}

func TestSpoolDrainDelivers(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for p := 1; p <= 5; p++ {
		if err := s.Enqueue(spoolRecord(t, 9, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Pending(); got != 5 {
		t.Fatalf("Pending = %d, want 5", got)
	}
	var got []*record.Record
	n, err := s.Drain(func(recs []*record.Record) (int, error) {
		got = recs
		return len(recs), nil
	})
	if err != nil || n != 5 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
	for i, rec := range got {
		if rec.Location != 9 || rec.Period != record.PeriodID(i+1) {
			t.Fatalf("record %d = loc %d period %d; order lost", i, rec.Location, rec.Period)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after full drain", s.Pending())
	}
	// Nothing left: the next drain must not call send at all.
	n, err = s.Drain(func([]*record.Record) (int, error) {
		t.Fatal("send called on empty spool")
		return 0, nil
	})
	if err != nil || n != 0 {
		t.Fatalf("empty Drain = %d, %v", n, err)
	}
}

func TestSpoolTransportFailureKeepsRecords(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for p := 1; p <= 3; p++ {
		if err := s.Enqueue(spoolRecord(t, 4, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("connection refused")
	if _, err := s.Drain(func([]*record.Record) (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("Drain err = %v, want %v", err, boom)
	}
	if s.Pending() != 3 {
		t.Fatalf("Pending = %d after failed drain, want 3", s.Pending())
	}
	n, err := s.Drain(func(recs []*record.Record) (int, error) { return len(recs), nil })
	if err != nil || n != 3 {
		t.Fatalf("retry Drain = %d, %v", n, err)
	}
}

// spoolServer serves store over loopback TCP and returns a client.
func spoolServer(t *testing.T, store transport.Store) *transport.Client {
	t.Helper()
	srv, err := transport.NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	c, err := transport.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func TestSpoolRemoteErrorCountsAsDelivered(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := spoolRecord(t, 4, 1)
	if err := s.Enqueue(rec); err != nil {
		t.Fatal(err)
	}
	// A real server already holds the record, so it answers "duplicate":
	// the spool must drop it rather than retry forever.
	srv, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Ingest(spoolRecord(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	c := spoolServer(t, srv)
	n, err := s.Drain(c.UploadBatch)
	if err != nil || n != 1 {
		t.Fatalf("Drain = %d, %v; a duplicate RemoteError should count as delivered", n, err)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
}

// walFailingStore answers every Ingest the way a server whose WAL fsync
// failed does.
type walFailingStore struct{ *central.Server }

func (walFailingStore) Ingest(*record.Record) error {
	return errors.New("central: logging record: wal: fsync: input/output error")
}

// TestSpoolServerDurabilityFailureKeepsRecords: a RemoteError that does
// not name a duplicate — a server whose log failed — means the records
// are not stored, so Drain must keep them for the next attempt.
func TestSpoolServerDurabilityFailureKeepsRecords(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for p := 1; p <= 8; p++ {
		if err := s.Enqueue(spoolRecord(t, 4, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	c := spoolServer(t, walFailingStore{srv})
	n, err := s.Drain(c.UploadBatch)
	if !transport.IsRemote(err) || n != 0 {
		t.Fatalf("Drain = %d, %v; want 0 delivered and the server's error", n, err)
	}
	if got := s.Pending(); got != 8 {
		t.Fatalf("Pending = %d after a server durability failure, want 8", got)
	}
}

// refusePeriodStore refuses one period the way a cluster node's leader
// gate refuses a record whose partition it no longer leads.
type refusePeriodStore struct {
	*central.Server
	period record.PeriodID
}

func (s refusePeriodStore) Ingest(rec *record.Record) error {
	if rec.Period == s.period {
		return errors.New("cluster: not leader of this partition")
	}
	return s.Server.Ingest(rec)
}

// TestSpoolDrainKeepsRefusedBehindDuplicate: a batch whose first record
// the server already holds and whose second it refuses is not
// delivered, so Drain returns the refusal and keeps every record.
func TestSpoolDrainKeepsRefusedBehindDuplicate(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for p := 1; p <= 3; p++ {
		if err := s.Enqueue(spoolRecord(t, 4, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Ingest(spoolRecord(t, 4, 1)); err != nil {
		t.Fatal(err)
	}
	c := spoolServer(t, refusePeriodStore{srv, 2})
	n, err := s.Drain(c.UploadBatch)
	if !transport.IsRemote(err) || transport.IsDuplicate(err) || n != 0 {
		t.Fatalf("Drain = %d, %v; want 0 delivered and the refusal", n, err)
	}
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d after a refused record, want 3", got)
	}
}

// TestSpoolDrainChunksBacklog: a backlog over one batch's bounds goes
// out in several UploadBatch calls, each committed by one server fsync,
// and the sealed segments are dropped only once every batch is in. A
// failure part-way keeps the whole backlog; the retry re-sends it and
// the batches already stored count as duplicates.
func TestSpoolDrainChunksBacklog(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 10
	for p := 1; p <= n; p++ {
		if err := s.Enqueue(spoolRecord(t, 4, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	d, err := central.OpenDurable(t.TempDir(), 3, wal.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := spoolServer(t, d)

	var sizes []int
	calls := 0
	cut := errors.New("connection reset")
	send := func(recs []*record.Record) (int, error) {
		if calls++; calls == 3 {
			return 0, cut
		}
		sizes = append(sizes, len(recs))
		return c.UploadBatch(recs)
	}
	if got, err := s.drain(send, 3, drainChunkBytes); !errors.Is(err, cut) || got != 0 {
		t.Fatalf("interrupted drain = %d, %v", got, err)
	}
	if got := s.Pending(); got != n {
		t.Fatalf("Pending = %d after an interrupted drain, want %d", got, n)
	}

	sizes, calls = nil, 10
	before := d.LogStats()
	if got, err := s.drain(send, 3, drainChunkBytes); err != nil || got != n {
		t.Fatalf("drain = %d, %v", got, err)
	}
	if want := []int{3, 3, 3, 1}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("batch sizes = %v, want %v", sizes, want)
	}
	after := d.LogStats()
	// The first two batches were stored before the cut: re-sent, they
	// are duplicates and append nothing. The last two cost one sync each.
	if got := after.Syncs - before.Syncs; got != 2 {
		t.Fatalf("drain cost %d server syncs, want 2 (one per new batch)", got)
	}
	if got := after.Appends - before.Appends; got != n-6 {
		t.Fatalf("drain cost %d server appends, want %d", got, n-6)
	}
	if s.Pending() != 0 || len(d.Periods(4)) != n {
		t.Fatalf("Pending = %d, server holds %d periods; want 0 and %d", s.Pending(), len(d.Periods(4)), n)
	}

	// The byte budget splits too: each record's share is its blob plus
	// a 4-byte length, and two fit in the budget below.
	for p := n + 1; p <= n+5; p++ {
		if err := s.Enqueue(spoolRecord(t, 4, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := spoolRecord(t, 4, 1).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sizes = nil
	if got, err := s.drain(send, transport.MaxBatchRecords, 2*(4+len(blob))); err != nil || got != 5 {
		t.Fatalf("byte-bounded drain = %d, %v", got, err)
	}
	if want := []int{2, 2, 1}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("byte-bounded batch sizes = %v, want %v", sizes, want)
	}
}

func TestSpoolSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 4; p++ {
		if err := s.Enqueue(spoolRecord(t, 7, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := reopened.Pending(); got != 4 {
		t.Fatalf("Pending after restart = %d, want 4", got)
	}
	var got []*record.Record
	n, err := reopened.Drain(func(recs []*record.Record) (int, error) {
		got = recs
		return len(recs), nil
	})
	if err != nil || n != 4 {
		t.Fatalf("Drain after restart = %d, %v", n, err)
	}
	for i, rec := range got {
		if rec.Period != record.PeriodID(i+1) {
			t.Fatalf("restart lost upload order: %v", got)
		}
	}
}

func TestSpoolEnqueueDuringDrainNotLost(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Enqueue(spoolRecord(t, 2, 1)); err != nil {
		t.Fatal(err)
	}
	// Enqueue a second record while the first batch is mid-send: the
	// seal means it lands in a new segment and survives the drop.
	n, err := s.Drain(func(recs []*record.Record) (int, error) {
		if err := s.Enqueue(spoolRecord(t, 2, 2)); err != nil {
			t.Fatal(err)
		}
		return len(recs), nil
	})
	if err != nil || n != 1 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want the mid-drain record", s.Pending())
	}
	n, err = s.Drain(func(recs []*record.Record) (int, error) { return len(recs), nil })
	if err != nil || n != 1 {
		t.Fatalf("second Drain = %d, %v", n, err)
	}
}

// TestSpoolPendingUnderConcurrentDrain: Enqueue and Drain on different
// goroutines, as the controller's beacon loop and delivery goroutine
// call them, keep Pending exact. A drain that delivers a record whose
// Enqueue has not yet counted it must not leave it counted afterwards:
// once both stop and a last Drain ends, nothing is pending and every
// record was delivered once.
func TestSpoolPendingUnderConcurrentDrain(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const n = 200
	delivered := 0 // only the draining goroutine, then this one, touch it
	send := func(recs []*record.Record) (int, error) {
		delivered += len(recs)
		return len(recs), nil
	}
	stop := make(chan struct{})
	drained := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				drained <- nil
				return
			default:
			}
			if _, err := s.Drain(send); err != nil {
				drained <- err
				return
			}
		}
	}()
	for p := 1; p <= n; p++ {
		if err := s.Enqueue(spoolRecord(t, 4, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	if _, err := s.Drain(send); err != nil {
		t.Fatal(err)
	}
	if delivered != n || s.Pending() != 0 {
		t.Fatalf("delivered %d of %d, Pending = %d; want all delivered and none pending", delivered, n, s.Pending())
	}
}

func TestBackoffDelaySchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 800 * time.Millisecond}.withDefaults()
	b.Jitter = func(time.Duration) time.Duration { return 0 } // deterministic
	want := []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
		800 * time.Millisecond,
		800 * time.Millisecond, // capped
		800 * time.Millisecond,
	}
	for i, w := range want {
		if got := b.delay(i); got != w {
			t.Errorf("delay(%d) = %v, want %v", i, got, w)
		}
	}
	// Jitter stays within half the base delay.
	j := Backoff{}.withDefaults()
	for i := 0; i < 100; i++ {
		d := j.delay(2)
		base := 4 * j.Base
		if d < base || d > base+base/2 {
			t.Fatalf("delay(2) = %v outside [%v, %v]", d, base, base+base/2)
		}
	}
}

func TestDrainWithRetryRecovers(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for p := 1; p <= 3; p++ {
		if err := s.Enqueue(spoolRecord(t, 5, record.PeriodID(p))); err != nil {
			t.Fatal(err)
		}
	}
	var slept []time.Duration
	fails := 2
	n, err := s.DrainWithRetry(
		func(recs []*record.Record) (int, error) {
			if fails > 0 {
				fails--
				return 0, errors.New("central unreachable")
			}
			return len(recs), nil
		},
		Backoff{
			Base: time.Millisecond, Max: 4 * time.Millisecond, Attempts: 5,
			Sleep:  func(d time.Duration) { slept = append(slept, d) },
			Jitter: func(time.Duration) time.Duration { return 0 },
		},
	)
	if err != nil || n != 3 {
		t.Fatalf("DrainWithRetry = %d, %v", n, err)
	}
	if len(slept) != 2 {
		t.Fatalf("slept %v, want exactly one backoff per failed attempt", slept)
	}
	if slept[0] != time.Millisecond || slept[1] != 2*time.Millisecond {
		t.Fatalf("backoff sequence %v not exponential", slept)
	}
}

func TestDrainWithRetryExhaustsBudget(t *testing.T) {
	s, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Enqueue(spoolRecord(t, 5, 1)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("still down")
	n, err := s.DrainWithRetry(
		func([]*record.Record) (int, error) { return 0, boom },
		Backoff{Attempts: 3, Sleep: func(time.Duration) {}},
	)
	if n != 0 || !errors.Is(err, boom) {
		t.Fatalf("DrainWithRetry = %d, %v; want 0 and the transport error", n, err)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, record must survive for the next run", s.Pending())
	}
}

// BenchmarkSpoolEnqueue measures the controller's spool traffic: each
// period's record is spooled and then drained, and the drain seals it
// into a segment of its own. Only the Enqueue is timed (it runs in the
// beacon loop); disk_B/op is the size of the segment it wrote.
func BenchmarkSpoolEnqueue(b *testing.B) {
	dir := b.TempDir()
	s, err := OpenSpool(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec, err := record.New(1, 1, 1<<15)
	if err != nil {
		b.Fatal(err)
	}
	send := func(recs []*record.Record) (int, error) { return len(recs), nil }
	var diskBytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Enqueue(rec); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
		if err != nil || len(segs) != 1 {
			b.Fatalf("spool holds segments %v (%v), want the one just written", segs, err)
		}
		st, err := os.Stat(segs[0])
		if err != nil {
			b.Fatal(err)
		}
		diskBytes += st.Size()
		if _, err := s.Drain(send); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(diskBytes)/float64(b.N), "disk_B/op")
}
