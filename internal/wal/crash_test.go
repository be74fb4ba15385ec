package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The crash differential: a kill -9 (or power cut) leaves some prefix
// of the written byte stream on disk, possibly ending mid-entry. For
// EVERY possible cut point in the tail segment, recovery must yield a
// prefix-consistent subset of the appended entries — never a reordered,
// corrupted, or hole-y subset — and every entry whose bytes are wholly
// before the cut must survive (that is what the fsync in SyncAlways
// buys: an acked entry's bytes are behind every later cut point).

// buildLog appends n entries and returns the dir and the per-entry end
// offsets within the tail segment (entries in earlier segments have
// offset -1).
func buildLog(t *testing.T, n int, segSize int64) (dir string, tailEnds []int64) {
	t.Helper()
	dir = t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: segSize})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Recompute each entry's end offset in the final segment.
	tailIdx := l.segIndex
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	tailEnds = make([]int64, 0, n)
	off := int64(segHeader)
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("%018d%s", tailIdx, segSuffix)))
	if err != nil {
		t.Fatal(err)
	}
	var inTail int
	for off < int64(len(data)) {
		plen := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		off += entryHdr + plen
		tailEnds = append(tailEnds, off)
		inTail++
	}
	// Entries before the tail segment are durable regardless of cut.
	pre := make([]int64, n-inTail)
	for i := range pre {
		pre[i] = -1
	}
	return dir, append(pre, tailEnds...)
}

// cloneTruncated copies a log directory, cutting the tail segment to
// cut bytes.
func cloneTruncated(t *testing.T, src string, cut int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	var tail string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == segSuffix && e.Name() > tail {
			tail = e.Name()
		}
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == tail {
			if cut > int64(len(data)) {
				cut = int64(len(data))
			}
			data = data[:cut]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func TestCrashRecoveryEveryCutPoint(t *testing.T) {
	for _, tc := range []struct {
		name    string
		n       int
		segSize int64
	}{
		{"single-segment", 8, 1 << 20},
		{"multi-segment", 12, 160},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, ends := buildLog(t, tc.n, tc.segSize)
			tailName := ""
			files, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range files {
				if filepath.Ext(f.Name()) == segSuffix && f.Name() > tailName {
					tailName = f.Name()
				}
			}
			st, err := os.Stat(filepath.Join(dir, tailName))
			if err != nil {
				t.Fatal(err)
			}
			for cut := int64(0); cut <= st.Size(); cut++ {
				crashed := cloneTruncated(t, dir, cut)
				l, err := Open(crashed, Options{Sync: SyncNever, SegmentSize: tc.segSize})
				if err != nil {
					t.Fatalf("cut %d: open: %v", cut, err)
				}
				var got [][]byte
				if err := l.Replay(func(p []byte) error {
					got = append(got, append([]byte(nil), p...))
					return nil
				}); err != nil {
					t.Fatalf("cut %d: replay: %v", cut, err)
				}
				// Prefix consistency: got == entries[0:k].
				for i, p := range got {
					if !bytes.Equal(p, entry(i)) {
						t.Fatalf("cut %d: recovered entry %d = %q, want %q (not a prefix)", cut, i, p, entry(i))
					}
				}
				// Durability: every entry wholly behind the cut survives.
				durable := 0
				for _, end := range ends {
					if end == -1 || end <= cut {
						durable++
					}
				}
				if len(got) < durable {
					t.Fatalf("cut %d: recovered %d entries, %d were durable", cut, len(got), durable)
				}
				// The log must accept appends after any repair.
				if err := l.Append([]byte("post-crash")); err != nil {
					t.Fatalf("cut %d: append after repair: %v", cut, err)
				}
				var again int
				if err := l.Replay(func([]byte) error { again++; return nil }); err != nil {
					t.Fatalf("cut %d: replay after repair+append: %v", cut, err)
				}
				if again != len(got)+1 {
					t.Fatalf("cut %d: post-repair replay %d entries, want %d", cut, again, len(got)+1)
				}
				if err := l.Close(); err != nil {
					t.Fatalf("cut %d: close: %v", cut, err)
				}
			}
		})
	}
}

// TestCrashDuringCompaction pins the checkpoint commit point: a crash
// after the rename but before segment deletion must recover to exactly
// the same state as a clean compaction (covered segments dropped, not
// replayed into duplicates beyond what apply tolerates).
func TestCrashDuringCompaction(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	sealed, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	// Write the checkpoint by hand (commit it) but "crash" before the
	// segment deletion DropThrough would do.
	ck := l.ckptPath(sealed)
	if err := os.WriteFile(ck, []byte("snapshot-of-0..9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 13; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(dir, Options{Sync: SyncNever, SegmentSize: 200})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var loaded string
	var replayed []string
	err = l2.Recover(
		func(path string) error {
			b, err := os.ReadFile(path)
			loaded = string(b)
			return err
		},
		func(p []byte) error { replayed = append(replayed, string(p)); return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if loaded == "" {
		t.Fatal("checkpoint not loaded")
	}
	if len(replayed) != 3 || replayed[0] != string(entry(10)) {
		t.Fatalf("replayed %v, want entries 10..12 only", replayed)
	}
	// The interrupted compaction is finished: covered segments gone.
	for i := uint64(1); i <= sealed; i++ {
		if _, err := os.Stat(l2.segPath(i)); !os.IsNotExist(err) {
			t.Errorf("covered segment %d still present after recovery", i)
		}
	}
}
