package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// entry builds a distinguishable payload.
func entry(i int) []byte {
	return []byte(fmt.Sprintf("entry-%06d-%s", i, string(bytes.Repeat([]byte{'x'}, i%40))))
}

// collect replays a log into a slice.
func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	if err := l.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	got := collect(t, l)
	if len(got) != n {
		t.Fatalf("replayed %d entries, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, entry(i)) {
			t.Fatalf("entry %d = %q, want %q", i, p, entry(i))
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: same contents, appends continue.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Entries != n || st.TruncatedBytes != 0 {
		t.Fatalf("reopen stats = %+v, want %d entries, 0 truncated", st, n)
	}
	if err := l2.Append(entry(n)); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2); len(got) != n+1 || !bytes.Equal(got[n], entry(n)) {
		t.Fatalf("after reopen+append: %d entries", len(got))
	}
}

func TestEmptyAndOversizeEntries(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(nil); !errors.Is(err, ErrEmptyEntry) {
		t.Fatalf("empty append err = %v", err)
	}
	if err := l.AppendNoSync([]byte{}); !errors.Is(err, ErrEmptyEntry) {
		t.Fatalf("empty AppendNoSync err = %v", err)
	}
	if err := l.Append(make([]byte, MaxEntrySize+1)); !errors.Is(err, ErrEntryTooBig) {
		t.Fatalf("oversize append err = %v", err)
	}
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("replay after refused appends = %v", got)
	}
	// A refusal does not poison the log.
	if err := l.Append(entry(1)); err != nil {
		t.Fatalf("append after refusals: %v", err)
	}
}

func TestRotationAndSegmentFiles(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every couple of entries.
	l, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st := l.Stats(); st.Rotations == 0 {
		t.Fatal("expected rotations with 128-byte segments")
	}
	if got := collect(t, l); len(got) != n {
		t.Fatalf("replayed %d, want %d", len(got), n)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen across many segments.
	l2, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := collect(t, l2); len(got) != n {
		t.Fatalf("reopened replay %d, want %d", len(got), n)
	}
}

func TestSealAndDropThrough(t *testing.T) {
	l, err := Open(t.TempDir(), Options{SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	// New entries land beyond the seal.
	for i := 10; i < 15; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	var sealedEntries int
	if err := l.ReplayThrough(sealed, func(p []byte) error { sealedEntries++; return nil }); err != nil {
		t.Fatal(err)
	}
	if sealedEntries != 10 {
		t.Fatalf("sealed prefix has %d entries, want 10", sealedEntries)
	}
	if err := l.DropThrough(sealed); err != nil {
		t.Fatal(err)
	}
	got := collect(t, l)
	if len(got) != 5 || !bytes.Equal(got[0], entry(10)) {
		t.Fatalf("after drop: %d entries, first %q", len(got), got[0])
	}
	// Sealing an already-empty active segment is a no-op seal.
	s2, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	s3, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if s3 != s2 {
		t.Fatalf("double seal moved: %d then %d", s2, s3)
	}
}

func TestDropActiveSegmentRefused(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.DropThrough(1); err == nil {
		t.Fatal("DropThrough(active) succeeded")
	}
}

func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	var state []string
	for i := 0; i < 20; i++ {
		p := entry(i)
		if err := l.Append(p); err != nil {
			t.Fatal(err)
		}
		state = append(state, string(p))
	}
	// Snapshot = newline-joined state.
	if err := l.Checkpoint(func(w io.Writer) error {
		for _, s := range state {
			if _, err := fmt.Fprintln(w, s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// Covered segments are gone; only the active one (and newer) remain.
	files, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("%d segment files after checkpoint, want 1: %v", len(files), files)
	}
	// More entries after the checkpoint.
	for i := 20; i < 25; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery = checkpoint + newer segments.
	l2, err := Open(dir, Options{SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var fromCkpt, fromLog []string
	err = l2.Recover(
		func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
				fromCkpt = append(fromCkpt, string(line))
			}
			return nil
		},
		func(p []byte) error { fromLog = append(fromLog, string(p)); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromCkpt) != 20 {
		t.Fatalf("checkpoint recovered %d entries, want 20", len(fromCkpt))
	}
	if len(fromLog) != 5 || fromLog[0] != string(entry(20)) {
		t.Fatalf("log recovered %d entries, first %q", len(fromLog), fromLog)
	}
}

func TestRecoverColdStart(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	loads, replays := 0, 0
	err = l2.Recover(
		func(string) error { loads++; return nil },
		func([]byte) error { replays++; return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if loads != 0 || replays != 7 {
		t.Fatalf("cold start: %d loads, %d replays; want 0, 7", loads, replays)
	}
}

func TestCheckpointFailureLeavesLogIntact(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("snapshot failed")
	if err := l.Checkpoint(func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("checkpoint err = %v, want %v", err, boom)
	}
	// No checkpoint committed, no temp litter, all entries still replay.
	if _, _, err := l.LatestCheckpoint(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("LatestCheckpoint after failure = %v", err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Fatalf("temp litter: %v", tmps)
	}
	if got := collect(t, l); len(got) != 5 {
		t.Fatalf("replay after failed checkpoint: %d entries, want 5", len(got))
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers, per = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := l.Append(entry(w*per + i)); err != nil {
					errs <- err
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
	st := l.Stats()
	if st.Appends != workers*per {
		t.Fatalf("appends = %d, want %d", st.Appends, workers*per)
	}
	// Group commit can never need more syncs than appends (plus
	// rotations); usually far fewer — but that is timing-dependent, so
	// only the upper bound is asserted.
	if st.Syncs > st.Appends+st.Rotations {
		t.Fatalf("syncs = %d exceeds appends+rotations = %d", st.Syncs, st.Appends+st.Rotations)
	}
	if got := collect(t, l); len(got) != workers*per {
		t.Fatalf("replayed %d, want %d", len(got), workers*per)
	}
}

// TestAppendNoSyncBatchCostsOneSync pins the batch contract: N
// AppendNoSync calls and one closing Append cost one fsync, the closing
// Append's sync covers every entry before it, and a Sync with nothing
// pending costs none.
func TestAppendNoSyncBatchCostsOneSync(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 7
	for batch := 0; batch < 3; batch++ {
		before := l.Stats().Syncs
		for i := 0; i < n; i++ {
			if err := l.AppendNoSync(entry(batch*(n+1) + i)); err != nil {
				t.Fatal(err)
			}
		}
		if got := l.Stats().Syncs - before; got != 0 {
			t.Fatalf("batch %d: %d syncs before the closing append, want 0", batch, got)
		}
		if err := l.Append(entry(batch*(n+1) + n)); err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().Syncs - before; got != 1 {
			t.Fatalf("batch %d: %d syncs for %d appends, want 1", batch, got, n+1)
		}
		l.syncMu.Lock()
		synced := l.syncedSeq
		l.syncMu.Unlock()
		if want := int64((batch + 1) * (n + 1)); synced != want {
			t.Fatalf("batch %d: synced through entry %d, want %d", batch, synced, want)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		if got := l.Stats().Syncs - before; got != 1 {
			t.Fatalf("batch %d: Sync with nothing pending cost a sync (%d total)", batch, got)
		}
	}
	if got := collect(t, l); len(got) != 3*(n+1) {
		t.Fatalf("replayed %d entries, want %d", len(got), 3*(n+1))
	}
}

// TestConcurrentBatchesAtMostOneSyncEach: writers interleaving batches
// of AppendNoSync entries closed by one Append never cost more than one
// fsync per batch (two writers' batches may share one), and every entry
// survives.
func TestConcurrentBatchesAtMostOneSyncEach(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers, batches, size = 4, 25, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				for i := 0; i < size; i++ {
					appendEntry := l.AppendNoSync
					if i == size-1 {
						appendEntry = l.Append
					}
					if err := appendEntry(entry((w*batches+b)*size + i)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if st.Rotations != 0 {
		t.Fatalf("%d rotations; the bound below assumes none", st.Rotations)
	}
	if st.Syncs > workers*batches {
		t.Fatalf("syncs = %d for %d batches, want at most one each", st.Syncs, workers*batches)
	}
	if got := collect(t, l); len(got) != workers*batches*size {
		t.Fatalf("replayed %d, want %d", len(got), workers*batches*size)
	}
}

// TestAppendNoSyncWriteErrorPoisons: a write failure on a non-waiting
// append poisons the log, so the batch's closing Append reports it
// instead of vouching for entries that never reached the file.
func TestAppendNoSyncWriteErrorPoisons(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AppendNoSync(entry(0)); err != nil {
		t.Fatal(err)
	}
	// Close the active segment underneath the log: the next write fails.
	l.mu.Lock()
	if err := l.f.Close(); err != nil {
		t.Fatal(err)
	}
	l.mu.Unlock()
	werr := l.AppendNoSync(entry(1))
	if werr == nil {
		t.Fatal("write to a closed segment succeeded")
	}
	if err := l.Append(entry(2)); err == nil || err.Error() != werr.Error() {
		t.Fatalf("closing append = %v, want the poisoning write error %v", err, werr)
	}
	if err := l.Sync(); err == nil || err.Error() != werr.Error() {
		t.Fatalf("sync after poisoning = %v, want %v", err, werr)
	}
	if got := l.Stats().Syncs; got != 0 {
		t.Fatalf("a poisoned batch cost %d syncs", got)
	}
	if err := l.Close(); err == nil {
		t.Fatal("closing a poisoned log reported no error")
	}
}

// TestFailedRotationPoisons: a rotation that fails poisons the log,
// whichever call rotated. The next segment's file is created first, so
// the rotation's exclusive create fails after the outgoing segment was
// synced and closed; every later Append, Seal and Sync must report that
// first error instead of retrying the rotation.
func TestFailedRotationPoisons(t *testing.T) {
	for _, tc := range []struct {
		name   string
		rotate func(l *Log) error
	}{
		{"append", func(l *Log) error {
			// Appends until one overflows the 128-byte segment.
			for i := 1; i < 16; i++ {
				if err := l.Append(entry(i)); err != nil {
					return err
				}
			}
			return nil
		}},
		{"seal", func(l *Log) error {
			_, err := l.Seal()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := Open(t.TempDir(), Options{SegmentSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(entry(0)); err != nil {
				t.Fatal(err)
			}
			_, active := l.Segments()
			if err := os.WriteFile(l.segPath(active+1), nil, 0o644); err != nil {
				t.Fatal(err)
			}
			first := tc.rotate(l)
			if first == nil {
				t.Fatal("rotation onto an existing segment file succeeded")
			}
			if err := os.Remove(l.segPath(active + 1)); err != nil {
				t.Fatal(err)
			}
			// With the obstacle gone a retried rotation would succeed;
			// the log must not retry it.
			if err := l.Append(entry(20)); !errors.Is(err, first) {
				t.Fatalf("append after the failed rotation = %v, want %v", err, first)
			}
			if _, err := l.Seal(); !errors.Is(err, first) {
				t.Fatalf("seal after the failed rotation = %v, want %v", err, first)
			}
			if err := l.Sync(); !errors.Is(err, first) {
				t.Fatalf("sync after the failed rotation = %v, want %v", err, first)
			}
			if err := l.Close(); err == nil {
				t.Fatal("closing a poisoned log reported no error")
			}
		})
	}
}

func TestClosedLogRefusesWork(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if _, err := l.Seal(); !errors.Is(err, ErrClosed) {
		t.Fatalf("seal after close = %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

func TestOpenRejectsSegmentGap(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Stats().Rotations < 2 {
		t.Fatal("need >= 3 segments for this test")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete a middle segment: recovery must refuse, not silently skip.
	if err := os.Remove(l.segPath(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{SegmentSize: 128}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with missing middle segment = %v, want ErrCorrupt", err)
	}
}

func TestOpenRejectsMidLogCorruption(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(seg []byte) []byte
	}{
		// A flipped payload byte in the FIRST segment is disk damage in
		// a sealed segment, not a torn tail.
		{"flipped byte", func(seg []byte) []byte { seg[segHeader+entryHdr+2] ^= 0xff; return seg }},
		// So are zeros behind a sealed segment's entries.
		{"zero tail", func(seg []byte) []byte { return append(seg, make([]byte, 64)...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, Options{SegmentSize: 128})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if err := l.Append(entry(i)); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			path := l.segPath(1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(data), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(dir, Options{SegmentSize: 128}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open with corrupt sealed segment = %v, want ErrCorrupt", err)
			}
		})
	}
}

// TestOpenRejectsBadOptions: Open refuses options it cannot honour,
// among them any sync policy but SyncAlways — an acked entry is always
// fsynced.
func TestOpenRejectsBadOptions(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts Options
		want string
	}{
		{"segment smaller than one entry", Options{SegmentSize: segHeader}, "too small"},
		{"sync policy other than SyncAlways", Options{Sync: SyncAlways + 1}, "sync policy"},
	} {
		dir := t.TempDir()
		l, err := Open(dir, tc.opts)
		if err == nil {
			t.Errorf("%s: Open accepted %+v", tc.name, tc.opts)
			if cerr := l.Close(); cerr != nil {
				t.Error(cerr)
			}
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Open error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestSyncAfterSealClosedSegment: a sync leader captures the active
// segment and fsyncs it outside the lock, so a Seal can rotate and close
// that segment in between (the spool's traffic: Enqueue in the beacon
// loop, Drain on the delivery goroutine). Rotation fsynced the segment,
// so the leader's sync must succeed without an fsync of its own, and the
// log must stay usable.
func TestSyncAfterSealClosedSegment(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.AppendNoSync(entry(0)); err != nil {
		t.Fatal(err)
	}
	l.mu.Lock()
	f := l.f // what syncTo captures before it lets go of the lock
	l.mu.Unlock()
	if _, err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if synced, err := l.syncSegment(f); synced || err != nil {
		t.Fatalf("sync of the sealed segment = %v, %v; want no fsync and no error", synced, err)
	}
	if err := l.Append(entry(1)); err != nil {
		t.Fatalf("append after the sync: %v", err)
	}
	if got := len(collect(t, l)); got != 2 {
		t.Fatalf("replayed %d entries, want 2", got)
	}
}
