package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// Checkpoint compaction: a checkpoint is a full snapshot of the state
// the log's entries build up (for the central store, one store segment
// holding every record — the format store.OpenSegment maps). Once a
// snapshot covering segments 1..N is durably on disk, those segments are
// redundant and dropped. The commit point is an atomic rename: either
// the old checkpoint (plus all segments) or the new checkpoint is what
// recovery sees, never a half-written snapshot.

// Checkpoint seals the active segment, streams the caller's snapshot to
// a temporary file, fsyncs it, atomically renames it into place, fsyncs
// the directory, and then deletes the covered segments and any older
// checkpoint. write must emit a snapshot that covers at least every
// entry in sealed segments; entries appended concurrently may or may
// not be included (recovery tolerates the resulting duplicates).
//
// Checkpoints are serialized: concurrent calls run one at a time.
func (l *Log) Checkpoint(write func(w io.Writer) error) error {
	l.ckptMu.Lock()
	defer l.ckptMu.Unlock()

	sealed, err := l.Seal()
	if err != nil {
		return err
	}

	if err := WriteFileAtomic(l.ckptPath(sealed), write); err != nil {
		return fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		return err
	}

	// The new checkpoint is durable; everything it covers is garbage.
	if err := l.removeCheckpointsBelow(sealed); err != nil {
		return err
	}
	l.mu.Lock()
	first, active := l.firstSeg, l.segIndex
	l.mu.Unlock()
	if sealed >= first && sealed < active {
		return l.DropThrough(sealed)
	}
	return nil
}

// WriteFileAtomic streams write's output to path+".tmp", fsyncs it, and
// atomically renames it into place: a reader (or a recovery scan) sees
// either the previous file or the complete new one, never a torn write.
// It is the commit primitive of checkpoint compaction, reused by the
// out-of-core store's segment freezer (internal/store) — the tiering
// freeze point inherits exactly the checkpoint's crash-safety argument.
// Callers that need the rename itself durable must also SyncDir the
// parent directory.
func WriteFileAtomic(path string, write func(w io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: creating temp file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("wal: closing temp file: %w", cerr)
	}
	if err != nil {
		//ptmlint:allow errdrop -- best-effort cleanup of a temp file already being abandoned on error
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("wal: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// SyncDir fsyncs a directory so renames and creates within it are
// durable — the second half of the WriteFileAtomic commit protocol.
func SyncDir(dir string) error { return syncDir(dir) }

// LatestCheckpoint returns the path of the newest checkpoint and the
// index of the newest segment it covers, or ErrNoCheckpoint when the log
// has none.
func (l *Log) LatestCheckpoint() (string, uint64, error) {
	_, ckpts, err := l.scanDir()
	if err != nil {
		return "", 0, err
	}
	if len(ckpts) == 0 {
		return "", 0, ErrNoCheckpoint
	}
	idx := ckpts[len(ckpts)-1]
	return l.ckptPath(idx), idx, nil
}

// removeCheckpointsBelow deletes every checkpoint covering less than
// keep.
func (l *Log) removeCheckpointsBelow(keep uint64) error {
	_, ckpts, err := l.scanDir()
	if err != nil {
		return err
	}
	for _, idx := range ckpts {
		if idx >= keep {
			continue
		}
		if err := os.Remove(l.ckptPath(idx)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("wal: removing stale checkpoint %d: %w", idx, err)
		}
	}
	return nil
}

// Recover rebuilds state from disk: it hands the newest checkpoint's
// path (if one exists) to load, which reads the file in whatever way
// suits its format, then replays every entry in segments newer than the
// checkpoint's coverage via apply, oldest first. Because a checkpoint
// may include entries that were appended while it was being written,
// apply must treat duplicates as success. Recovery also finishes an
// interrupted compaction: segments the checkpoint covers are dropped
// rather than replayed.
//
// Call Recover after Open and before the first Append.
func (l *Log) Recover(load func(path string) error, apply func(payload []byte) error) error {
	covered := uint64(0)
	path, idx, err := l.LatestCheckpoint()
	switch {
	case errors.Is(err, ErrNoCheckpoint):
		// Cold start: replay everything.
	case err != nil:
		return err
	default:
		if err := load(path); err != nil {
			return fmt.Errorf("wal: loading checkpoint %d: %w", idx, err)
		}
		covered = idx
	}

	l.mu.Lock()
	first, active := l.firstSeg, l.segIndex
	l.mu.Unlock()

	// Finish a compaction the crash interrupted between checkpoint
	// commit and segment deletion.
	if covered >= first && covered < active {
		if err := l.DropThrough(covered); err != nil {
			return err
		}
		first = covered + 1
	}
	start := first
	if covered+1 > start {
		start = covered + 1
	}
	return l.replayRange(start, active, apply)
}

// Replay calls fn for every entry currently in the log, oldest first.
// It reads the segment files directly; call it only while no Append is
// in flight (the spool drainer seals first for exactly this reason).
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	first, active := l.firstSeg, l.segIndex
	l.mu.Unlock()
	return l.replayRange(first, active, fn)
}

// ReplayThrough calls fn for every entry in segments with index <= seg,
// oldest first. Entries appended after the corresponding Seal live in
// newer segments and are not visited, so a drainer can read a stable
// prefix while appends continue.
func (l *Log) ReplayThrough(seg uint64, fn func(payload []byte) error) error {
	l.mu.Lock()
	first := l.firstSeg
	l.mu.Unlock()
	return l.replayRange(first, seg, fn)
}

// ReplaySegments calls fn for every entry in segments first..last
// inclusive, oldest first. It is the replication shipper's incremental
// read: after Seal returns sealed, ReplaySegments(watermark+1, sealed,
// fn) visits exactly the entries the follower has not yet seen. Like
// ReplayThrough, segments dropped by a concurrent checkpoint are
// silently skipped — a shipper must compare first against
// Segments()'s first return afterwards and fall back to a full resync
// if the range's low end no longer exists.
func (l *Log) ReplaySegments(first, last uint64, fn func(payload []byte) error) error {
	return l.replayRange(first, last, fn)
}

// replayRange scans segments first..last inclusive. Segments were
// validated (and the tail repaired) by Open, so any error here is real
// corruption or a broken fn.
func (l *Log) replayRange(first, last uint64, fn func(payload []byte) error) error {
	for idx := first; idx <= last; idx++ {
		f, err := os.Open(l.segPath(idx))
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // dropped concurrently by a checkpoint
			}
			return fmt.Errorf("wal: opening segment %d for replay: %w", idx, err)
		}
		_, err = scanEntries(f, idx, fn)
		closeQuiet(f)
		if err != nil {
			if errors.Is(err, errTornTail) && idx == last {
				// The active segment can have an in-flight append
				// behind the last good boundary; the entries before
				// it were all delivered.
				return nil
			}
			return fmt.Errorf("%w: %s: %v", ErrCorrupt, filepath.Base(l.segPath(idx)), err)
		}
	}
	return nil
}
