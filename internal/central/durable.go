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
// is a durability promise, not just a parse receipt. Queries pass
// through to the embedded Server unchanged — the
// replayed store is the same in-memory structure, so estimator outputs
// over recovered records are bit-identical to a never-crashed run
// (proven by the differential tests in durable_test.go).
//
// # Publish order
//
// A record enters the store only once a sync covers its log entry, and
// records enter in log order, so a query only ever sees durable
// records. Under mu, Ingest rejects a duplicate (a stored record or a
// pending one), appends the record to the log without a sync and queues
// it as pending. Commit counts the logged records, syncs the log, and
// then publishes the pending records it counted into the store under
// mu, so the store's Ingest must not call back into the Durable. A
// failed append leaves no trace, so the RSU's retry starts clean; a
// failed sync poisons the log, so a pending record never becomes
// visible.
//
// # Batches
//
// A transport UploadBatch or a replication batch marks every record but
// its last (record.MarkMore). A marked record is logged and left
// pending; the last record's Ingest commits the whole batch, so a batch
// of N costs N appends and one fsync, and its ack goes out only after
// that sync made all N durable and visible.
//
// # Checkpoints and resyncs
//
// A checkpoint drops every sealed log segment, so its snapshot must
// hold every entry those segments contain. Checkpoint seals and then
// commits before it writes the snapshot: every sealed entry was logged
// before the seal, so that commit publishes it. A replication round that
// resyncs a follower from the store commits after its seal the same way.
type Durable struct {
	*Server
	log *wal.Log

	// checkpointEvery triggers automatic compaction after that many
	// logged records (0 disables automatic checkpoints).
	checkpointEvery int

	mu        sync.Mutex
	pending   []*record.Record       //ptm:guardedby mu (logged, not yet published, in log order)
	queued    map[recordKey]struct{} //ptm:guardedby mu (the keys of pending)
	published int64                  //ptm:guardedby mu (records ever moved from pending to the store)
	sinceCkpt int                    //ptm:guardedby mu (records logged since the last automatic checkpoint)
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
		queued: make(map[recordKey]struct{})}
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

// Ingest logs the record and commits it. It returns only after an
// fsync covering the log append completed and the record is in the
// store, so a nil return means the record survives a crash.
//
// A record marked by record.MarkMore (a batch decoder's "more of this
// batch follows") is the exception: it is logged and left pending, and
// the batch's unmarked last record commits it. An unmarked record
// commits on every return path — duplicate, invalid and failed appends
// included — so a batch of N records costs N appends and one fsync,
// and a nil (or duplicate) answer for the last record vouches for the
// whole batch. A failed commit outranks the record's own answer: the
// batch is not durable, and a duplicate must not read as delivered.
func (d *Durable) Ingest(rec *record.Record) error {
	if rec == nil {
		return record.ErrNilBitmap
	}
	more := rec.TakeMore()
	due, err := d.logPending(rec)
	if !more {
		if cerr := d.Commit(); cerr != nil {
			return cerr
		}
	}
	if err != nil || !due {
		return err
	}
	if err := d.Checkpoint(); err != nil {
		// The record itself is durable (it is in the log); compaction
		// failing is an operational problem, not an ingest failure.
		return fmt.Errorf("central: auto checkpoint: %w", err)
	}
	return nil
}

// logPending validates the record, rejects a duplicate, logs the record
// without a sync and queues it for the next Commit. due reports that
// the record completes checkpointEvery logged records since the last
// automatic checkpoint.
func (d *Durable) logPending(rec *record.Record) (due bool, err error) {
	if err := rec.Validate(); err != nil {
		return false, err
	}
	blob, err := rec.MarshalBinary()
	if err != nil {
		return false, err
	}
	key := recordKey{rec.Location, rec.Period}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Replayed uploads are common (an RSU retries every un-acked
	// record), and rejecting them here keeps them out of the log.
	// Contains touches no cold-tier data — the index alone answers.
	if _, ok := d.queued[key]; ok || d.Server.st.Contains(rec.Location, rec.Period) {
		return false, fmt.Errorf("%w: loc=%d period=%d", ErrDuplicate, rec.Location, rec.Period)
	}
	if err := d.log.AppendNoSync(blob); err != nil {
		return false, fmt.Errorf("central: logging record: %w", err)
	}
	d.pending = append(d.pending, rec)
	d.queued[key] = struct{}{}
	d.sinceCkpt++
	due = d.sinceCkpt == d.checkpointEvery // never when it is 0
	if due {
		d.sinceCkpt = 0
	}
	return due, nil
}

// Commit returns once a sync covers every record logged so far and
// those records are in the store, at no fsync when the log holds
// nothing unsynced. Ingest calls it for every unmarked record; a caller
// that rejects a batch's last record before Ingest calls it itself. An
// error from the store while publishing is returned too.
func (d *Durable) Commit() error {
	d.mu.Lock()
	through := d.published + int64(len(d.pending))
	d.mu.Unlock()
	if err := d.log.Sync(); err != nil {
		return fmt.Errorf("central: committing batch: %w", err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// A concurrent Commit may have published some of them already.
	n := int(through - d.published)
	if n <= 0 {
		return nil
	}
	var first error
	for _, rec := range d.pending[:n] {
		delete(d.queued, recordKey{rec.Location, rec.Period})
		if err := d.Server.Ingest(rec); err != nil && first == nil {
			first = err
		}
	}
	rest := copy(d.pending, d.pending[n:])
	clear(d.pending[rest:])
	d.pending = d.pending[:rest]
	d.published += int64(n)
	return first
}

// Checkpoint writes the whole store as one segment (SaveTo) and drops
// the log segments it covers. Safe to call concurrently with ingest.
func (d *Durable) Checkpoint() error {
	return d.log.Checkpoint(func(w io.Writer) error {
		// The log has sealed: publish every sealed entry, so the
		// snapshot holds all the segments this checkpoint drops.
		if err := d.Commit(); err != nil {
			return err
		}
		return d.Server.SaveTo(w)
	})
}

// LogStats exposes the underlying WAL counters.
func (d *Durable) LogStats() wal.Stats { return d.log.Stats() }

// Log exposes the underlying write-ahead log. The cluster replication
// shipper uses it to Seal a stable prefix and replay sealed segments to
// followers. Every entry is appended through Ingest, which keeps the
// log and the pending records in one order: callers must not Append to
// it, nor Close it (Close the Durable instead).
func (d *Durable) Log() *wal.Log { return d.log }

// Close flushes and closes the log. The in-memory store remains
// queryable but further Ingest calls fail.
func (d *Durable) Close() error { return d.log.Close() }
