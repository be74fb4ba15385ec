package rsu

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/wal"
)

// Spool is an RSU's store-and-forward buffer: when the central server is
// unreachable, ended-period records are appended to an on-disk segmented
// log instead of being dropped, and delivered later. The log is the same
// WAL format the central server uses for durability, so a spooled record
// survives an rsud restart or power loss (an Enqueue that returned is
// fsynced).
//
// Delivery is at-least-once: a crash between a successful upload and the
// segment drop re-sends the batch on the next drain. The central server
// rejects the replays as duplicates, which the drainer treats as
// delivered — see Drain.
//
// Lock order: drainMu is taken before mu (Drain holds drainMu across
// the seal → send → drop cycle and briefly takes mu to adjust pending);
// mu is never held across I/O.
//
//ptm:lockorder drainMu<mu
type Spool struct {
	log *wal.Log

	drainMu sync.Mutex // serializes drains (seal → send → drop)

	mu      sync.Mutex // guards pending; never held across I/O
	pending int        //ptm:guardedby mu
}

// OpenSpool opens (or creates) the spool directory and counts any
// records left over from a previous run.
func OpenSpool(dir string) (*Spool, error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, fmt.Errorf("rsu: opening spool: %w", err)
	}
	return &Spool{log: l, pending: int(l.Stats().Entries)}, nil
}

// Enqueue spools one record. A nil return means the record is on disk
// and will be delivered by a future Drain, even across restarts.
func (s *Spool) Enqueue(rec *record.Record) error {
	blob, err := rec.MarshalBinary()
	if err != nil {
		return err
	}
	if err := s.log.Append(blob); err != nil {
		return fmt.Errorf("rsu: spooling record: %w", err)
	}
	s.mu.Lock()
	s.pending++
	s.mu.Unlock()
	return nil
}

// Pending returns how many spooled records await delivery.
func (s *Spool) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending
}

// drainChunkBytes bounds the UploadBatch payload of one drain chunk:
// the frame limit less the batch's 4-byte record count. Each record
// adds its 4-byte length and its blob.
const drainChunkBytes = transport.MaxFrameSize - 4

// Drain makes one delivery attempt: it seals the log (so concurrent
// Enqueues land in a fresh segment), reads every sealed record, hands
// them to send in batches that fit one UploadBatch frame (at most
// transport.MaxBatchRecords records and MaxFrameSize bytes each), and
// drops the sealed segments once every batch is delivered. It returns
// how many records were delivered.
//
// send is typically a transport.Client UploadBatch wrapper. A
// *transport.RemoteError that names a duplicate (transport.IsDuplicate)
// counts as delivered: the server already holds those records —
// almost always a batch whose ack was lost — so retrying the same bytes
// can never succeed and would wedge the spool. Any other failure,
// remote ones included (a server whose log failed answers with a
// RemoteError too), leaves the segments in place for the next attempt,
// which re-sends every batch; the server rejects the ones it already
// holds as duplicates.
func (s *Spool) Drain(send func([]*record.Record) (int, error)) (int, error) {
	return s.drain(send, transport.MaxBatchRecords, drainChunkBytes)
}

// drain is Drain with the batch bounds as parameters, so a test can
// split a small backlog.
func (s *Spool) drain(send func([]*record.Record) (int, error), maxRecords, maxBytes int) (int, error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	sealed, err := s.log.Seal()
	if err != nil {
		return 0, fmt.Errorf("rsu: sealing spool: %w", err)
	}
	var recs []*record.Record
	var sizes []int // each record's share of a batch payload
	err = s.log.ReplayThrough(sealed, func(payload []byte) error {
		rec, err := record.Unmarshal(payload)
		if err != nil {
			return fmt.Errorf("rsu: decoding spooled record: %w", err)
		}
		recs = append(recs, rec)
		sizes = append(sizes, 4+len(payload))
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, nil
	}
	for start := 0; start < len(recs); {
		end, bytes := start+1, sizes[start]
		for end < len(recs) && end-start < maxRecords && bytes+sizes[end] <= maxBytes {
			bytes += sizes[end]
			end++
		}
		if _, err := send(recs[start:end]); err != nil && !transport.IsDuplicate(err) {
			return 0, err
		}
		start = end
	}
	if err := s.log.DropThrough(sealed); err != nil {
		return 0, fmt.Errorf("rsu: dropping delivered segments: %w", err)
	}
	s.mu.Lock()
	if s.pending -= len(recs); s.pending < 0 {
		s.pending = 0
	}
	s.mu.Unlock()
	return len(recs), nil
}

// Backoff is a capped exponential backoff schedule with jitter for
// repeated drain attempts against an unreachable server.
type Backoff struct {
	// Base is the first delay (default 250ms).
	Base time.Duration
	// Max caps the exponential growth (default 10s).
	Max time.Duration
	// Attempts bounds how many drains one DrainWithRetry makes
	// (default 6).
	Attempts int
	// Sleep is called between attempts; nil means time.Sleep. Tests
	// inject a recorder.
	Sleep func(time.Duration)
	// Jitter adds a random fraction of the delay; nil means the shared
	// math/rand source. (Jitter de-synchronizes a fleet of RSUs that
	// all lost the same central server — crypto-quality randomness buys
	// nothing here.)
	Jitter func(time.Duration) time.Duration
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 250 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 10 * time.Second
	}
	if b.Attempts <= 0 {
		b.Attempts = 6
	}
	if b.Sleep == nil {
		b.Sleep = time.Sleep
	}
	if b.Jitter == nil {
		b.Jitter = func(d time.Duration) time.Duration {
			return time.Duration(rand.Int63n(int64(d)/2 + 1))
		}
	}
	return b
}

// delay returns the sleep before attempt i (0-based): Base<<i capped at
// Max, plus jitter.
func (b Backoff) delay(i int) time.Duration {
	d := b.Base
	for ; i > 0 && d < b.Max; i-- {
		d *= 2
	}
	if d > b.Max {
		d = b.Max
	}
	return d + b.Jitter(d)
}

// DrainWithRetry drains until the spool is empty or the attempt budget
// runs out, sleeping with capped exponential backoff between failed
// attempts. It returns the total records delivered and the last
// transport error (nil once the spool is empty).
func (s *Spool) DrainWithRetry(send func([]*record.Record) (int, error), b Backoff) (int, error) {
	b = b.withDefaults()
	total := 0
	var lastErr error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if attempt > 0 {
			b.Sleep(b.delay(attempt - 1))
		}
		n, err := s.Drain(send)
		total += n
		if err == nil {
			if s.Pending() == 0 {
				return total, nil
			}
			continue // delivered a sealed prefix; newer records remain
		}
		lastErr = err
	}
	if lastErr == nil && s.Pending() > 0 {
		lastErr = fmt.Errorf("rsu: spool not drained after %d attempts", b.Attempts)
	}
	return total, lastErr
}

// Close flushes and closes the underlying log; pending records stay on
// disk for the next process.
func (s *Spool) Close() error { return s.log.Close() }
