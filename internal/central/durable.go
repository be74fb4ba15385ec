package central

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"ptm/internal/record"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

// Durable wraps a Server with a write-ahead log so that every ingested
// record is fsynced before the upload is acknowledged: the transport Ack
// is a durability promise, not just a parse receipt. Queries and
// retention pass through to the embedded Server unchanged — the
// replayed store is the same in-memory structure, so estimator outputs
// over recovered records are bit-identical to a never-crashed run
// (proven by the differential tests in durable_test.go).
//
// # Ingest ordering
//
// Ingest appends the record to the WAL first and only then inserts it
// into memory. The alternative order (memory first) would leave a
// record queryable but not durable if the append failed, and a retry of
// that upload would be rejected as a duplicate even though nothing is
// on disk — a silent hole in the durability contract. With WAL-first, a
// failed append leaves no trace and the RSU's retry starts clean.
// Two ingests of one (location, period) never overlap: the second waits
// for the first to finish and then finds the record stored, so a
// duplicate, whether a retried upload or a replica shipping a record
// back, is rejected before it reaches the log.
//
// # Batches
//
// A transport UploadBatch or a replication batch marks every record but
// its last (record.MarkMore). Ingest logs a marked record without
// waiting for a sync, and the last record's Ingest waits for one sync
// covering the whole batch, so a batch of N costs N appends and one
// fsync, and the batch ack still goes out only after that sync. The
// price is a window: from a marked record's store insert until its
// batch's closing sync, a query can see a record a crash could still
// lose. Such a record was never acked, so its RSU retries and re-sends
// the same bytes.
//
// # Checkpoint ordering
//
// A checkpoint drops every sealed log segment, so its snapshot must
// hold every entry those segments contain — including one whose append
// finished before the seal but whose store insert has not happened yet.
// Each Ingest therefore holds applying shared from before its append
// until its record is in the store, and Checkpoint takes applying
// exclusively once the log has sealed: when it gets the lock, every
// sealed entry is applied (AwaitApplied). Ingest keeps running while
// the snapshot is written; it waits only for the in-flight appends to
// land. A replication round that resyncs a follower from the store
// waits the same way after it seals.
//
//ptm:lockorder applying<mu
type Durable struct {
	*Server
	log *wal.Log

	// checkpointEvery triggers automatic compaction after that many
	// successful ingests (0 disables automatic checkpoints).
	checkpointEvery int

	// applying is held shared across each ingest's append and apply, and
	// taken exclusively, briefly, by AwaitApplied.
	applying sync.RWMutex

	mu        sync.Mutex
	sinceCkpt int //ptm:guardedby mu (successful ingests since the last checkpoint)

	// inflight holds, per record being ingested, a channel closed once
	// that ingest has finished.
	inflightMu sync.Mutex
	inflight   map[recordKey]chan struct{} //ptm:guardedby inflightMu
}

// recordKey names a record by what makes it a duplicate.
type recordKey struct {
	loc    vhash.LocationID
	period record.PeriodID
}

// OpenDurable opens (or creates) the WAL directory, creates a resident
// store, and recovers its contents: the newest checkpoint is loaded and
// newer log segments are replayed. checkpointEvery > 0 compacts the log
// automatically after that many ingested records; pass 0 to checkpoint
// only explicitly (e.g. on shutdown).
func OpenDurable(dir string, s int, opts wal.Options, checkpointEvery int) (*Durable, error) {
	srv, err := NewServer(s)
	if err != nil {
		return nil, err
	}
	return OpenDurableServer(dir, srv, opts, checkpointEvery)
}

// OpenDurableServer wraps an existing server (for example one mounted
// over a tiered store) with a WAL and recovers into it: the newest
// checkpoint segment is mapped and loaded (Server.LoadFrom), then newer
// log segments are replayed. Recovery is idempotent against the
// server's current contents: records a tiered store already holds cold
// in its segment directory are skipped when the checkpoint or log
// replays them. Note that WAL checkpoints hold the whole store, cold
// tier included — the cold segments are the cold tier's own durability,
// the checkpoint is the log's compaction point.
func OpenDurableServer(dir string, srv *Server, opts wal.Options, checkpointEvery int) (*Durable, error) {
	if checkpointEvery < 0 {
		return nil, fmt.Errorf("central: negative checkpointEvery %d", checkpointEvery)
	}
	log, err := wal.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	d := &Durable{Server: srv, log: log, checkpointEvery: checkpointEvery,
		inflight: make(map[recordKey]chan struct{})}
	if err := log.Recover(srv.LoadFrom, d.applyEntry); err != nil {
		//ptmlint:allow errdrop -- the recovery error is what the caller sees; close is best-effort cleanup
		_ = log.Close()
		return nil, fmt.Errorf("central: recovering store: %w", err)
	}
	return d, nil
}

// applyEntry replays one WAL entry into the in-memory store. A record
// already present (the checkpoint included it, or an RSU double-logged
// a retried upload) is skipped: replay is idempotent.
func (d *Durable) applyEntry(payload []byte) error {
	rec, err := record.Unmarshal(payload)
	if err != nil {
		return fmt.Errorf("central: decoding WAL entry: %w", err)
	}
	if err := d.Server.Ingest(rec); err != nil && !errors.Is(err, ErrDuplicate) {
		return err
	}
	return nil
}

// Ingest logs the record, then stores it. It returns only after an
// fsync covering the WAL append completed, so a nil return means the
// record survives a crash.
//
// A record marked by record.MarkMore (a batch decoder's "more of this
// batch follows") is the exception: it is logged without waiting for a
// sync and stored, and the batch's unmarked last record commits it.
// An unmarked record returns only after a sync that covers every entry
// logged so far, on every return path — duplicate, invalid and failed
// appends included — so a batch of N records costs N appends and one
// fsync, and a nil (or duplicate) answer for the last record vouches
// for the whole batch. A failed commit outranks the record's own
// answer: the batch is not durable, and a duplicate must not read as
// delivered.
func (d *Durable) Ingest(rec *record.Record) error {
	if rec == nil {
		return record.ErrNilBitmap
	}
	more := rec.TakeMore()
	committed, err := d.ingest(rec, more)
	if !more && !committed {
		if cerr := d.Commit(); cerr != nil {
			return cerr
		}
	}
	if err != nil {
		return err
	}
	if d.checkpointEvery > 0 {
		d.mu.Lock()
		d.sinceCkpt++
		due := d.sinceCkpt >= d.checkpointEvery
		if due {
			d.sinceCkpt = 0
		}
		d.mu.Unlock()
		if due {
			if err := d.Checkpoint(); err != nil {
				// The record itself is durable (it is in the log);
				// compaction failing is an operational problem, not an
				// ingest failure.
				return fmt.Errorf("central: auto checkpoint: %w", err)
			}
		}
	}
	return nil
}

// ingest validates, logs and stores one record. committed reports that
// the record's own append waited for a sync, which then covers every
// entry logged before it.
func (d *Durable) ingest(rec *record.Record, more bool) (committed bool, err error) {
	if err := rec.Validate(); err != nil {
		return false, err
	}
	defer d.enter(recordKey{rec.Location, rec.Period})()
	// Duplicate check: replayed uploads are common (an RSU retries
	// every un-acked record), and rejecting them before the append
	// keeps them out of the log entirely. Contains touches no cold-tier
	// data — the index alone answers. No other ingest of this record is
	// between here and its insert (enter), so the answer holds.
	if d.Server.st.Contains(rec.Location, rec.Period) {
		return false, fmt.Errorf("%w: loc=%d period=%d", ErrDuplicate, rec.Location, rec.Period)
	}
	blob, err := rec.MarshalBinary()
	if err != nil {
		return false, err
	}
	// The auto checkpoint in Ingest takes applying exclusively, so it
	// must run after logAndApply has released its shared hold.
	return d.logAndApply(rec, blob, more)
}

// enter waits until no other ingest of key is in flight, marks key as
// in flight, and returns the func that ends the mark.
func (d *Durable) enter(key recordKey) (leave func()) {
	for {
		d.inflightMu.Lock()
		busy, ok := d.inflight[key]
		if !ok {
			done := make(chan struct{})
			d.inflight[key] = done
			d.inflightMu.Unlock()
			return func() {
				d.inflightMu.Lock()
				delete(d.inflight, key)
				d.inflightMu.Unlock()
				close(done)
			}
		}
		d.inflightMu.Unlock()
		<-busy
	}
}

// logAndApply appends the record's blob to the log — without waiting
// for a sync when more records of its batch follow — and then inserts
// the record into the store, holding applying shared across both
// steps.
func (d *Durable) logAndApply(rec *record.Record, blob []byte, more bool) (committed bool, err error) {
	d.applying.RLock()
	defer d.applying.RUnlock()
	appendEntry := d.log.Append
	if more {
		appendEntry = d.log.AppendNoSync
	}
	if err := appendEntry(blob); err != nil {
		return false, fmt.Errorf("central: logging record: %w", err)
	}
	return !more, d.Server.Ingest(rec)
}

// Commit closes a batch whose last record did not log itself: it
// returns once a sync covers every entry logged so far, at no cost when
// none is pending. Ingest calls it for an unmarked record that was not
// appended; a caller that rejects a batch's last record before Ingest
// calls it itself.
func (d *Durable) Commit() error {
	if err := d.log.Sync(); err != nil {
		return fmt.Errorf("central: committing batch: %w", err)
	}
	return nil
}

// Checkpoint writes the whole store as one segment (SaveTo) and drops
// the log segments it covers. Safe to call concurrently with ingest.
func (d *Durable) Checkpoint() error {
	return d.log.Checkpoint(func(w io.Writer) error {
		// The log has sealed: the snapshot must hold every entry of the
		// sealed segments this checkpoint drops.
		d.AwaitApplied()
		return d.Server.SaveTo(w)
	})
}

// AwaitApplied returns once every record whose log append finished
// before the call is in the store. A caller that seals the log and then
// reads the store (Checkpoint, a replication round's full resync) calls
// it between the two, so the store holds every sealed entry. Ingest
// keeps running afterwards; it waits only while in-flight appends land.
func (d *Durable) AwaitApplied() {
	// Getting the lock is the wait: every in-flight ingest has released
	// its shared hold by then.
	d.applying.Lock()
	d.applying.Unlock()
}

// LogStats exposes the underlying WAL counters.
func (d *Durable) LogStats() wal.Stats { return d.log.Stats() }

// Log exposes the underlying write-ahead log. The cluster replication
// shipper uses it to Seal a stable prefix and replay sealed segments to
// followers; callers must not Close it (Close the Durable instead).
func (d *Durable) Log() *wal.Log { return d.log }

// Close flushes and closes the log. The in-memory store remains
// queryable but further Ingest calls fail.
func (d *Durable) Close() error { return d.log.Close() }
