//go:build !race

// Zero-allocation regression tests for the //ptm:noalloc append fast
// path, mirroring the perfguard contracts proved at lint time. The file
// is excluded from -race builds because race instrumentation introduces
// allocations unrelated to the contracts under test.

package wal

import "testing"

func TestEntryHeaderDoesNotAllocate(t *testing.T) {
	var hdr [entryHdr]byte
	payload := make([]byte, 256)
	if n := testing.AllocsPerRun(100, func() {
		putEntryHeader(&hdr, payload)
	}); n != 0 {
		t.Errorf("putEntryHeader allocated %.1f times per run, want 0", n)
	}
}

func TestAppendFastPathDoesNotAllocate(t *testing.T) {
	// The measured call includes the group-commit fsync, so the whole
	// synced append is held to zero allocations. A large segment size
	// keeps rotation (which opens files, and may allocate) out of the
	// measured runs.
	l, err := Open(t.TempDir(), Options{SegmentSize: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := l.Close(); err != nil {
			t.Errorf("closing log: %v", err)
		}
	}()
	payload := make([]byte, 256)
	if n := testing.AllocsPerRun(100, func() {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Append allocated %.1f times per run, want 0", n)
	}
}
