package transport

import (
	"bytes"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

func makeBatch(t testing.TB, n int) []*record.Record {
	t.Helper()
	recs := make([]*record.Record, n)
	for i := range recs {
		rec, err := record.New(42, record.PeriodID(i+1), 256)
		if err != nil {
			t.Fatal(err)
		}
		rec.Bitmap.Set(uint64(i))
		recs[i] = rec
	}
	return recs
}

func TestBatchCodecRoundTrip(t *testing.T) {
	recs := makeBatch(t, 7)
	payload, err := encodeUploadBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeUploadBatch(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		want, err := recs[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		have, err := got[i].MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, have) {
			t.Errorf("record %d does not round-trip", i)
		}
	}
}

func TestBatchCodecErrors(t *testing.T) {
	if _, err := encodeUploadBatch(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("empty batch err = %v", err)
	}
	if _, err := encodeUploadBatch(make([]*record.Record, MaxBatchRecords+1)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("oversize batch err = %v", err)
	}

	recs := makeBatch(t, 3)
	payload, err := encodeUploadBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix must be rejected, never panic.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeUploadBatch(payload[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Trailing garbage after a valid batch.
	if _, err := decodeUploadBatch(append(append([]byte{}, payload...), 0xff)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("trailing bytes err = %v", err)
	}
	// A count that promises more records than the payload can hold must be
	// rejected before allocation.
	hostile := []byte{0xff, 0xff, 0x00, 0x00}
	if _, err := decodeUploadBatch(hostile); !errors.Is(err, ErrBadFrame) {
		t.Errorf("hostile count err = %v", err)
	}
}

func TestBatchResultCodec(t *testing.T) {
	for _, r := range []batchResult{
		{ok: true, accepted: 12},
		{ok: false, accepted: 3, errMsg: "record 3/5: duplicate"},
	} {
		got, err := decodeBatchResult(r.encode())
		if err != nil {
			t.Fatal(err)
		}
		if got != r {
			t.Errorf("batch result round trip: %+v vs %+v", got, r)
		}
	}
	if _, err := decodeBatchResult([]byte{1}); !errors.Is(err, ErrBadFrame) {
		t.Errorf("short batch result err = %v", err)
	}
}

func TestUploadBatchOverTCP(t *testing.T) {
	store, client := newTestStack(t)
	recs := makeBatch(t, 10)
	accepted, err := client.UploadBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	if accepted != len(recs) {
		t.Errorf("accepted = %d, want %d", accepted, len(recs))
	}
	if got := store.Periods(42); len(got) != len(recs) {
		t.Errorf("store holds %d periods, want %d", len(got), len(recs))
	}
}

// TestUploadBatchPartialFailure: one duplicate inside a batch must not
// discard the rest, and the connection stays usable afterwards.
func TestUploadBatchPartialFailure(t *testing.T) {
	store, client := newTestStack(t)
	recs := makeBatch(t, 5)
	if err := client.Upload(recs[2]); err != nil {
		t.Fatal(err)
	}
	accepted, err := client.UploadBatch(recs)
	if !IsRemote(err) {
		t.Fatalf("partial batch err = %v, want RemoteError", err)
	}
	if !strings.Contains(err.Error(), "record 2/5") {
		t.Errorf("err text = %v", err)
	}
	if accepted != 4 {
		t.Errorf("accepted = %d, want 4", accepted)
	}
	if got := store.Periods(42); len(got) != 5 {
		t.Errorf("store holds %d periods, want 5", len(got))
	}
	// Still usable.
	if _, err := client.QueryVolume(42, 1); err != nil {
		t.Errorf("connection unusable after partial batch: %v", err)
	}
}

// TestPipelinedUploads: many goroutines share one client; pipelining must
// match every response to its caller (no cross-talk) and land every
// record.
func TestPipelinedUploads(t *testing.T) {
	const (
		workers = 8
		perW    = 25
	)
	store, client := newTestStack(t)
	var wg sync.WaitGroup
	// Interleave uploads and queries from many goroutines over the one
	// shared connection.
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				rec, err := record.New(vhash.LocationID(100+g), record.PeriodID(i+1), 64)
				if err != nil {
					t.Error(err)
					return
				}
				rec.Bitmap.Set(uint64(g*perW + i))
				if err := client.Upload(rec); err != nil {
					t.Errorf("worker %d upload %d: %v", g, i, err)
					return
				}
				if _, err := client.ListPeriods(vhash.LocationID(100 + g)); err != nil {
					t.Errorf("worker %d list %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < workers; g++ {
		if got := store.Periods(vhash.LocationID(100 + g)); len(got) != perW {
			t.Errorf("location %d holds %d periods, want %d", 100+g, len(got), perW)
		}
	}
}

// TestClientCloseReleasesWaiters: Close must fail in-flight and
// subsequent calls with ErrClientClosed instead of hanging.
func TestClientCloseReleasesWaiters(t *testing.T) {
	_, client := newTestStack(t)
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := record.New(1, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	err = client.Upload(rec)
	if err == nil {
		t.Fatal("upload on closed client succeeded")
	}
	if IsRemote(err) {
		t.Errorf("closed-client err misclassified as remote: %v", err)
	}
}

func TestUploadBatchEmptyRejectedClientSide(t *testing.T) {
	_, client := newTestStack(t)
	if _, err := client.UploadBatch(nil); !errors.Is(err, ErrBadFrame) {
		t.Errorf("empty batch err = %v", err)
	}
}

// durableStack serves a central.Durable, optionally wrapped,
// over loopback TCP.
func durableStack(t *testing.T, wrap func(*central.Durable) Store) (*central.Durable, *Client) {
	t.Helper()
	d, err := central.OpenDurable(t.TempDir(), 3, wal.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var store Store = d
	if wrap != nil {
		store = wrap(d)
	}
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = srv.Close()
		_ = d.Close()
	})
	client, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return d, client
}

// TestUploadBatchOneSyncPerBatch: a durable store commits an UploadBatch
// of 8 with exactly one WAL sync (one per record before batches marked
// their records), and the ack still follows that sync. A batch whose
// last record is a duplicate costs the same single sync and names that
// record.
func TestUploadBatchOneSyncPerBatch(t *testing.T) {
	d, client := durableStack(t, nil)
	recs := makeBatch(t, 16)

	before := d.LogStats()
	accepted, err := client.UploadBatch(recs[:8])
	if err != nil || accepted != 8 {
		t.Fatalf("UploadBatch = %d, %v", accepted, err)
	}
	after := d.LogStats()
	if got := after.Syncs - before.Syncs; got != 1 {
		t.Fatalf("batch of 8 cost %d syncs, want 1", got)
	}
	if got := after.Appends - before.Appends; got != 8 {
		t.Fatalf("batch of 8 cost %d appends, want 8", got)
	}

	if err := client.Upload(recs[15]); err != nil {
		t.Fatal(err)
	}
	before = d.LogStats()
	accepted, err = client.UploadBatch(recs[8:])
	if !IsDuplicate(err) || !strings.Contains(err.Error(), "record 7/8") || accepted != 7 {
		t.Fatalf("batch ending in a duplicate = %d, %v; want 7 accepted and record 7/8 named", accepted, err)
	}
	if got := d.LogStats().Syncs - before.Syncs; got != 1 {
		t.Fatalf("batch ending in a duplicate cost %d syncs, want 1", got)
	}
	if got := d.Periods(42); len(got) != 16 {
		t.Fatalf("store holds %d periods, want 16", len(got))
	}
}

// failLastStore closes the durable log just before the batch's last
// record, so the closing sync fails with the first seven records logged
// but not committed.
type failLastStore struct {
	*central.Durable
	n, last int
}

func (s *failLastStore) Ingest(rec *record.Record) error {
	if s.n++; s.n == s.last {
		if err := s.Log().Close(); err != nil {
			return err
		}
	}
	return s.Durable.Ingest(rec)
}

// TestUploadBatchFailedCommitAcceptsNone: when the batch's last record
// fails with anything but a duplicate — here its commit — the ack
// reports 0 accepted and that record's error: no record of the batch is
// known to be durable.
func TestUploadBatchFailedCommitAcceptsNone(t *testing.T) {
	_, client := durableStack(t, func(d *central.Durable) Store {
		return &failLastStore{Durable: d, last: 8}
	})
	accepted, err := client.UploadBatch(makeBatch(t, 8))
	if !IsRemote(err) || IsDuplicate(err) || accepted != 0 {
		t.Fatalf("UploadBatch = %d, %v; want 0 accepted and a non-duplicate RemoteError", accepted, err)
	}
	if !strings.Contains(err.Error(), "record 7/8") || !strings.Contains(err.Error(), wal.ErrClosed.Error()) {
		t.Fatalf("err = %v, want record 7/8's commit failure", err)
	}
}

// refusePeriodStore refuses one period the way a cluster node's leader
// gate refuses a record whose partition it no longer leads.
type refusePeriodStore struct {
	Store
	period record.PeriodID
}

func (s refusePeriodStore) Ingest(rec *record.Record) error {
	if rec.Period == s.period {
		return errors.New("cluster: not leader of this partition")
	}
	return s.Store.Ingest(rec)
}

// TestUploadBatchRefusalOutranksDuplicate: a batch whose first record
// is already stored and whose second is refused must name the refusal,
// not the duplicate — a client reads a duplicate ack as "every record
// is stored" and would drop the refused one.
func TestUploadBatchRefusalOutranksDuplicate(t *testing.T) {
	store, client := durableStack(t, func(d *central.Durable) Store {
		return refusePeriodStore{d, 2}
	})
	recs := makeBatch(t, 3)
	if err := client.Upload(recs[0]); err != nil {
		t.Fatal(err)
	}
	accepted, err := client.UploadBatch(recs)
	if !IsRemote(err) || IsDuplicate(err) {
		t.Fatalf("UploadBatch err = %v, want a non-duplicate RemoteError", err)
	}
	if !strings.Contains(err.Error(), "record 1/3") || !strings.Contains(err.Error(), "not leader") {
		t.Fatalf("err = %v, want record 1/3's refusal", err)
	}
	if accepted != 1 {
		t.Errorf("accepted = %d, want 1", accepted)
	}
	if got := store.Periods(42); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("store holds periods %v, want [1 3]", got)
	}

	// Only duplicates: the ack names the first one.
	_, err = client.UploadBatch([]*record.Record{recs[0], recs[2]})
	if !IsDuplicate(err) || !strings.Contains(err.Error(), "record 0/2") {
		t.Fatalf("all-duplicate batch err = %v, want record 0/2's duplicate", err)
	}
}

// TestIsDuplicateMatchesServerMessage: IsDuplicate recognizes the
// duplicate rejection exactly as a server sends it, single and batched,
// and nothing else.
func TestIsDuplicateMatchesServerMessage(t *testing.T) {
	_, client := newTestStack(t)
	recs := makeBatch(t, 2)
	if _, err := client.UploadBatch(recs); err != nil {
		t.Fatal(err)
	}
	if err := client.Upload(recs[0]); !IsDuplicate(err) {
		t.Errorf("single duplicate upload: IsDuplicate(%v) = false", err)
	}
	if _, err := client.UploadBatch(recs); !IsDuplicate(err) {
		t.Errorf("duplicate batch: IsDuplicate(%v) = false", err)
	}
	for _, err := range []error{nil, errors.New("connection refused"), &RemoteError{Msg: "central: logging record: wal: fsync: input/output error"}} {
		if IsDuplicate(err) {
			t.Errorf("IsDuplicate(%v) = true", err)
		}
	}
}
