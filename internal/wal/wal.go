// Package wal is the durability plane of the measurement system: a
// segmented, append-only, checksummed log that makes record ingest
// survive power loss. The central server logs every uploaded record
// before acknowledging it (so a transport Ack is a durability promise,
// Section II-A's "collects the traffic records" made crash-safe), and an
// RSU uses the same log as a store-and-forward spool when the backhaul
// to the central server is down.
//
// # On-disk layout
//
// A log is a directory of numbered segment files plus at most one
// checkpoint:
//
//	000000000000000001.wal     segment 1 (oldest surviving)
//	000000000000000002.wal     segment 2 (active tail)
//	checkpoint-000000000000000001.ckpt
//
// Each segment starts with a 16-byte header (magic "PTMW", version,
// segment index) followed by length-prefixed, CRC32C-framed entries:
//
//	length  uint32 LE   payload length
//	crc     uint32 LE   CRC32C (Castagnoli) of the payload
//	payload length bytes
//
// The checkpoint file name carries the index of the newest segment it
// wholly covers; its contents are opaque to this package (the central
// store writes one store segment of all its records).
//
// # Durability contract
//
// Append returns only after the entry is written to the active segment
// and fsynced, so a nil return is a durability promise. Concurrent
// appenders share one fsync (group commit): each waits until a sync
// covering its entry has completed, but only one goroutine at a time
// issues Fsync, so a burst of N appends costs far fewer than N disk
// flushes. One caller can group its own entries the same way:
// AppendNoSync writes an entry without waiting, and the next Append (or
// Sync) waits for one fsync that covers it too, so a batch of N entries
// costs one flush. A failed fsync poisons the log permanently: after a
// sync error every Append and Sync fails, because the kernel may have
// dropped the dirty pages and silently retrying would turn "maybe lost"
// into "acknowledged and lost".
//
// # Recovery
//
// Open scans the segments in order and truncates a torn tail: a final
// entry whose length, checksum, or payload is incomplete (the crash
// happened mid-write) is cut off, and appending resumes at the last
// good entry boundary. Corruption anywhere except the tail of the last
// segment is reported as an error, not repaired — that is disk damage,
// not a torn write. Recover then loads the newest checkpoint (if any)
// and replays every entry in newer segments; because a checkpoint may
// also contain entries appended while it was being written, the apply
// callback must tolerate duplicates.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// SyncPolicy names the log's fsync behaviour. SyncAlways is the only
// one; the type stays while bench/ptmload still names it.
type SyncPolicy int

// SyncAlways fsyncs before Append returns (group-committed): an
// acknowledged entry survives power loss.
const SyncAlways SyncPolicy = 0

// Options tunes a log. The zero value is usable.
type Options struct {
	// Sync is kept while bench/ptmload still sets it. Leave it zero:
	// Open rejects any value but SyncAlways.
	Sync SyncPolicy
	// SegmentSize rotates the active segment once it exceeds this many
	// bytes (default 64 MiB). Smaller segments make checkpoint
	// compaction reclaim space sooner.
	SegmentSize int64
}

// DefaultSegmentSize is the SegmentSize of a zero Options.
const DefaultSegmentSize = 64 << 20

// Framing constants.
const (
	segMagic   = 0x574d5450 // "PTMW" little-endian
	segVersion = 1
	segHeader  = 16 // magic u32, version u8, 3 reserved, index u64
	entryHdr   = 8  // length u32, crc u32

	// MaxEntrySize bounds one entry's payload; it matches the transport
	// frame bound, since entries are uploaded records.
	MaxEntrySize = 1<<27 + 1024

	segSuffix  = ".wal"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
)

// Errors.
var (
	ErrClosed       = errors.New("wal: log closed")
	ErrCorrupt      = errors.New("wal: corrupt segment")
	ErrEntryTooBig  = errors.New("wal: entry exceeds MaxEntrySize")
	ErrNoCheckpoint = errors.New("wal: no checkpoint")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Stats counts a log's activity since Open.
type Stats struct {
	// Appends is the number of entries appended.
	Appends int64
	// Syncs is the number of Fsync calls issued; under concurrent
	// appends this is typically far below Appends (group commit).
	Syncs int64
	// Rotations counts segment rollovers.
	Rotations int64
	// TruncatedBytes is how much torn tail Open cut off.
	TruncatedBytes int64
	// Entries is the number of entries on disk at Open (before new
	// appends), across all surviving segments.
	Entries int64
}

// Log is a segmented append-only log. All methods are safe for
// concurrent use.
//
// Lock order (machine-checked by the lockorder lint rule): ckptMu is
// outermost — Checkpoint holds it across Seal and DropThrough, which
// take syncMu and mu, and it is never acquired while either of those is
// held; syncMu is taken before mu (group commit captures the sync
// target under mu while leading under syncMu); mu is innermost and is
// never held while acquiring another Log lock.
//
//ptm:lockorder ckptMu<syncMu ckptMu<mu syncMu<mu
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex // guards the fields below and file writes
	f        *os.File   //ptm:guardedby mu (active segment)
	segIndex uint64     //ptm:guardedby mu (active segment's index)
	segSize  int64      //ptm:guardedby mu (bytes written to the active segment)
	firstSeg uint64     //ptm:guardedby mu (oldest surviving segment index)
	writeSeq int64      //ptm:guardedby mu (entries ever written, monotonic, includes recovered)
	closed   bool       //ptm:guardedby mu

	// Group commit state.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedSeq int64 //ptm:guardedby syncMu (all entries <= syncedSeq are on stable storage)
	syncing   bool  //ptm:guardedby syncMu (a leader is currently in Fsync)
	syncErr   error //ptm:guardedby syncMu (sticky: a failed fsync poisons the log)

	// Activity counters, updated on the append and sync paths.
	//ptm:guardedby mu
	stats struct {
		appends   int64
		syncs     int64
		rotations int64
		truncated int64
		entries   int64
	}

	// ckptMu serializes Checkpoint calls. It is the outermost Log lock:
	// held across Seal and DropThrough (which take syncMu and mu), never
	// acquired while either is held.
	ckptMu sync.Mutex
}

// Open creates or opens the log directory, repairing a torn tail so the
// log is ready to append. Existing entries are not interpreted; use
// Recover or Replay to read them back.
//
//ptm:exclusive constructor: the Log is not shared until Open returns
func Open(dir string, opts Options) (*Log, error) {
	if opts.Sync != SyncAlways {
		return nil, fmt.Errorf("wal: sync policy %d: SyncAlways is the only policy", int(opts.Sync))
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.SegmentSize < segHeader+entryHdr {
		return nil, fmt.Errorf("wal: segment size %d too small", opts.SegmentSize)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: creating %s: %w", dir, err)
	}
	l := &Log{dir: dir, opts: opts}
	l.syncCond = sync.NewCond(&l.syncMu)

	segs, _, err := l.scanDir()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		if err := l.openSegment(1); err != nil {
			return nil, err
		}
		l.firstSeg = 1
	} else {
		l.firstSeg = segs[0]
		// Verify every closed segment and repair the last one's tail.
		for i, idx := range segs {
			last := i == len(segs)-1
			n, truncated, err := checkSegment(l.segPath(idx), idx, last)
			if err != nil {
				return nil, err
			}
			l.stats.entries += n
			l.stats.truncated += truncated
			l.writeSeq += n
		}
		tail := segs[len(segs)-1]
		f, err := os.OpenFile(l.segPath(tail), os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("wal: reopening segment %d: %w", tail, err)
		}
		size, err := f.Seek(0, io.SeekEnd)
		if err != nil {
			closeQuiet(f)
			return nil, fmt.Errorf("wal: seeking segment %d: %w", tail, err)
		}
		if size < segHeader {
			// The crash tore the tail segment's own header (truncated
			// to zero above); rewrite it so appends resume cleanly.
			var hdr [segHeader]byte
			binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
			hdr[4] = segVersion
			binary.LittleEndian.PutUint64(hdr[8:16], tail)
			if _, err := f.Write(hdr[:]); err != nil {
				closeQuiet(f)
				return nil, fmt.Errorf("wal: rewriting segment %d header: %w", tail, err)
			}
			size = segHeader
		}
		l.f, l.segIndex, l.segSize = f, tail, size
	}
	l.syncedSeq = l.writeSeq // everything recovered is already on disk
	return l, nil
}

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// Stats returns activity counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Appends:        l.stats.appends,
		Syncs:          l.stats.syncs,
		Rotations:      l.stats.rotations,
		TruncatedBytes: l.stats.truncated,
		Entries:        l.stats.entries,
	}
}

// Append writes one entry to the log. It returns only after an fsync
// covering the entry has completed, so a nil return is a durability
// promise. The payload is copied into framing before the
// call returns; the caller may reuse it.
//
//ptm:sink wal append
func (l *Log) Append(payload []byte) error {
	seq, err := l.write(payload)
	if err != nil {
		return err
	}
	return l.syncTo(seq)
}

// AppendNoSync writes one entry like Append but returns without waiting
// for a sync. The entry becomes durable with the next sync that covers
// it: a later Append's or an explicit Sync. A batch written as N-1
// AppendNoSync calls and one closing Append therefore costs one fsync,
// and the closing Append's nil is the promise for the whole batch. A write error poisons the log, so the closing Append
// reports it too.
//
//ptm:sink wal append
func (l *Log) AppendNoSync(payload []byte) error {
	_, err := l.write(payload)
	return err
}

// write frames one entry onto the active segment, rotating first if it
// would overflow, and returns the entry's sequence number.
func (l *Log) write(payload []byte) (int64, error) {
	if len(payload) > MaxEntrySize {
		return 0, fmt.Errorf("%w: %d bytes", ErrEntryTooBig, len(payload))
	}
	if err := l.stickyErr(); err != nil {
		return 0, err
	}

	// Frame outside the lock: the CRC over a large payload must not
	// stall other appenders.
	var hdr [entryHdr]byte
	putEntryHeader(&hdr, payload)

	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return 0, ErrClosed
	}
	if l.segSize > segHeader && l.segSize+entryHdr+int64(len(payload)) > l.opts.SegmentSize {
		if err := l.rotateLocked(); err != nil {
			l.mu.Unlock()
			return 0, err
		}
	}
	seq, err := l.writeEntryLocked(&hdr, payload)
	l.mu.Unlock()
	if err != nil {
		// A partial write desyncs the entry framing; poison the log.
		return 0, l.poison(err)
	}
	return seq, nil
}

// putEntryHeader encodes one entry's framing — payload length and
// CRC32C — into a caller-owned buffer.
//
//ptm:noalloc
//ptm:nobce
func putEntryHeader(hdr *[entryHdr]byte, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
}

// writeEntryLocked writes one framed entry to the active segment and
// returns its sequence number. Caller holds l.mu and is responsible for
// rotation (before) and for poisoning the log on error (after, outside
// the lock — poison takes syncMu, which must not nest inside mu). This
// is the per-entry fast path; it must not allocate, so an ingest burst
// spooling to the log puts no pressure on the garbage collector.
//
//ptm:noalloc
func (l *Log) writeEntryLocked(hdr *[entryHdr]byte, payload []byte) (int64, error) {
	if _, err := l.f.Write(hdr[:]); err != nil {
		return 0, fmt.Errorf("wal: writing entry header: %w", err)
	}
	if _, err := l.f.Write(payload); err != nil {
		return 0, fmt.Errorf("wal: writing entry payload: %w", err)
	}
	l.segSize += entryHdr + int64(len(payload))
	l.writeSeq++
	l.stats.appends++
	return l.writeSeq, nil
}

// Sync flushes every entry appended so far to stable storage. It is
// how a batch of AppendNoSync entries that has no closing Append
// commits.
func (l *Log) Sync() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	seq := l.writeSeq
	l.mu.Unlock()
	return l.syncTo(seq)
}

// syncTo blocks until a completed fsync covers entry seq. At most one
// goroutine is inside Fsync at a time; everyone else waits for that
// leader's result (group commit).
func (l *Log) syncTo(seq int64) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	for {
		if l.syncErr != nil {
			return l.syncErr
		}
		if l.syncedSeq >= seq {
			return nil
		}
		if !l.syncing {
			break
		}
		l.syncCond.Wait()
	}
	l.syncing = true
	// Capture the covered range and file under mu: rotation fsyncs the
	// outgoing segment before switching, so syncing the file captured
	// here covers every entry up to target.
	l.mu.Lock()
	f := l.f
	target := l.writeSeq
	closed := l.closed
	l.mu.Unlock()

	l.syncMu.Unlock()
	var err error
	if closed {
		err = ErrClosed
	} else {
		err = f.Sync()
	}
	l.syncMu.Lock()

	l.syncing = false
	l.syncCond.Broadcast()
	if err != nil {
		if l.syncErr == nil {
			l.syncErr = fmt.Errorf("wal: fsync: %w", err)
		}
		return l.syncErr
	}
	l.mu.Lock()
	l.stats.syncs++
	l.mu.Unlock()
	if target > l.syncedSeq {
		l.syncedSeq = target
	}
	if l.syncedSeq >= seq {
		return nil
	}
	// Our entry was appended before syncTo was called, so the captured
	// target always covers it; reaching here means another leader must
	// finish first (it raced us between the captures).
	for l.syncedSeq < seq && l.syncErr == nil {
		l.syncCond.Wait()
	}
	return l.syncErr
}

// stickyErr returns the poisoning fsync failure, if any.
func (l *Log) stickyErr() error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	return l.syncErr
}

// poison records a write failure as the sticky error and returns it.
func (l *Log) poison(err error) error {
	l.syncMu.Lock()
	defer l.syncMu.Unlock()
	if l.syncErr == nil {
		l.syncErr = err
	}
	l.syncCond.Broadcast()
	return l.syncErr
}

// rotateLocked seals the active segment and opens the next one. Caller
// holds l.mu. The outgoing segment is fsynced so the group-commit
// invariant — syncing the active file covers all unsynced
// entries — holds across the switch.
func (l *Log) rotateLocked() error {
	f, idx := l.f, l.segIndex
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing sealed segment %d: %w", idx, err)
	}
	l.stats.syncs++
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: closing sealed segment %d: %w", idx, err)
	}
	l.stats.rotations++
	return l.openSegment(idx + 1)
}

// openSegment creates segment idx and makes it active. Caller holds
// l.mu (or is Open, before the log is shared).
func (l *Log) openSegment(idx uint64) error {
	path := l.segPath(idx)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating segment %d: %w", idx, err)
	}
	var hdr [segHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[8:16], idx)
	if _, err := f.Write(hdr[:]); err != nil {
		closeQuiet(f)
		return fmt.Errorf("wal: writing segment %d header: %w", idx, err)
	}
	// The new file's existence must survive a crash before entries in
	// it are considered durable.
	if err := syncDir(l.dir); err != nil {
		closeQuiet(f)
		return err
	}
	l.f, l.segIndex, l.segSize = f, idx, segHeader
	return nil
}

// Seal rotates to a fresh segment and returns the index of the newest
// sealed one; entries appended afterwards land in newer segments. A
// spool drainer seals, uploads everything through the sealed index,
// then calls DropThrough.
func (l *Log) Seal() (uint64, error) {
	if err := l.stickyErr(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.segSize == segHeader {
		// Active segment is empty: everything is already sealed.
		return l.segIndex - 1, nil
	}
	sealed := l.segIndex
	if err := l.rotateLocked(); err != nil {
		return 0, err
	}
	return sealed, nil
}

// Segments returns the index of the oldest surviving segment and of the
// active tail segment. A replication shipper uses the pair to decide
// between incremental catch-up (its watermark+1 >= first, so every
// needed segment still exists) and a full-state resync (checkpoint
// compaction already dropped segments the follower has not seen).
func (l *Log) Segments() (first, active uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.firstSeg, l.segIndex
}

// DropThrough deletes every segment with index <= seg. It refuses to
// drop the active segment.
func (l *Log) DropThrough(seg uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if seg >= l.segIndex {
		return fmt.Errorf("wal: cannot drop active segment %d (drop through %d)", l.segIndex, seg)
	}
	for idx := l.firstSeg; idx <= seg; idx++ {
		if err := os.Remove(l.segPath(idx)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: dropping segment %d: %w", idx, err)
		}
	}
	if seg >= l.firstSeg {
		l.firstSeg = seg + 1
	}
	return syncDir(l.dir)
}

// Close flushes and closes the log.
func (l *Log) Close() error {
	var syncErr error
	if err := l.Sync(); err != nil && !errors.Is(err, ErrClosed) {
		syncErr = err
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return syncErr
	}
	l.closed = true
	err := l.f.Close()
	l.mu.Unlock()
	// Wake any waiters stuck behind a leader.
	l.syncMu.Lock()
	if l.syncErr == nil {
		l.syncErr = ErrClosed
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	if syncErr != nil {
		return syncErr
	}
	if err != nil {
		return fmt.Errorf("wal: closing active segment: %w", err)
	}
	return nil
}

// segPath returns the file path of segment idx.
func (l *Log) segPath(idx uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%018d%s", idx, segSuffix))
}

// ckptPath returns the checkpoint path covering segments <= idx.
func (l *Log) ckptPath(idx uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("%s%018d%s", ckptPrefix, idx, ckptSuffix))
}

// scanDir lists segment indices (sorted ascending, verified contiguous)
// and checkpoint indices (sorted ascending) present in the directory.
func (l *Log) scanDir() (segs, ckpts []uint64, err error) {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: reading %s: %w", l.dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, segSuffix) && !strings.HasPrefix(name, ckptPrefix):
			idx, perr := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
			if perr != nil || idx == 0 {
				return nil, nil, fmt.Errorf("%w: stray file %s", ErrCorrupt, name)
			}
			segs = append(segs, idx)
		case strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix):
			raw := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
			idx, perr := strconv.ParseUint(raw, 10, 64)
			if perr != nil {
				return nil, nil, fmt.Errorf("%w: stray file %s", ErrCorrupt, name)
			}
			ckpts = append(ckpts, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	for i := 1; i < len(segs); i++ {
		if segs[i] != segs[i-1]+1 {
			return nil, nil, fmt.Errorf("%w: segment gap between %d and %d", ErrCorrupt, segs[i-1], segs[i])
		}
	}
	return segs, ckpts, nil
}

// checkSegment validates one segment file, returning its entry count.
// For the last (active-tail) segment, a torn final entry is truncated
// away and its size returned; anywhere else it is an error.
func checkSegment(path string, wantIdx uint64, repairTail bool) (entries, truncated int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("wal: opening segment: %w", err)
	}
	defer closeQuiet(f)
	var n int64
	end, terr := scanEntries(f, wantIdx, func([]byte) error { n++; return nil })
	if terr == nil {
		return n, 0, nil
	}
	if !errors.Is(terr, errTornTail) {
		return 0, 0, fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(path), terr)
	}
	if !repairTail {
		return 0, 0, fmt.Errorf("%w: %s: torn entry in a sealed segment", ErrCorrupt, filepath.Base(path))
	}
	st, serr := f.Stat()
	if serr != nil {
		return 0, 0, fmt.Errorf("wal: stat %s: %w", filepath.Base(path), serr)
	}
	truncated = st.Size() - end
	if err := os.Truncate(path, end); err != nil {
		return 0, 0, fmt.Errorf("wal: truncating torn tail of %s: %w", filepath.Base(path), err)
	}
	return n, truncated, nil
}

// errTornTail marks an incomplete final entry — recoverable by
// truncation when it occurs in the last segment.
var errTornTail = errors.New("torn tail")

// scanEntries reads a segment from its current position, calling fn for
// each well-formed entry, and returns the offset of the last good entry
// boundary. A short or checksum-failing final region yields errTornTail
// wrapped with detail; fn errors abort the scan.
func scanEntries(r io.ReadSeeker, wantIdx uint64, fn func(payload []byte) error) (good int64, err error) {
	br := newByteCounter(r)
	var hdr [segHeader]byte
	if _, err := io.ReadFull(br, hdr[:segHeader]); err != nil {
		return 0, fmt.Errorf("%w: short header: %v", errTornTail, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != segMagic {
		return 0, fmt.Errorf("bad segment magic %#x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	if hdr[4] != segVersion {
		return 0, fmt.Errorf("unsupported segment version %d", hdr[4])
	}
	if got := binary.LittleEndian.Uint64(hdr[8:16]); got != wantIdx {
		return 0, fmt.Errorf("segment claims index %d, file named %d", got, wantIdx)
	}
	good = segHeader
	var ehdr [entryHdr]byte
	for {
		if _, err := io.ReadFull(br, ehdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return good, nil // clean end on an entry boundary
			}
			return good, fmt.Errorf("%w: short entry header: %v", errTornTail, err)
		}
		n := binary.LittleEndian.Uint32(ehdr[0:4])
		if n > MaxEntrySize {
			// An absurd length is indistinguishable from a torn write
			// that clobbered the header; recoverable at the tail.
			return good, fmt.Errorf("%w: entry claims %d bytes", errTornTail, n)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return good, fmt.Errorf("%w: short entry payload: %v", errTornTail, err)
		}
		if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(ehdr[4:8]) {
			return good, fmt.Errorf("%w: entry checksum mismatch", errTornTail)
		}
		if err := fn(payload); err != nil {
			return good, err
		}
		good = br.n
	}
}

// byteCounter counts bytes consumed from an io.Reader.
type byteCounter struct {
	r io.Reader
	n int64
}

func newByteCounter(r io.Reader) *byteCounter { return &byteCounter{r: r} }

// Read implements io.Reader.
func (b *byteCounter) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	b.n += int64(n)
	return n, err
}

// closeQuiet closes read-only handles whose close errors carry no
// information.
func closeQuiet(f *os.File) {
	//ptmlint:allow errdrop -- read-side close; all write paths check their own errors
	_ = f.Close()
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("wal: opening dir for sync: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("wal: syncing dir: %w", err)
	}
	return nil
}
