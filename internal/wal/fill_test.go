package wal

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// The fill: entries are written over 0xFF bytes laid down ahead of them,
// so an fsync flushes data instead of committing a file extension. These
// tests pin where the fill goes and that every crash state it can leave
// recovers like a torn tail. A crash state is a copy of a log directory
// taken while the log is open, as a crash that kept every write (the
// page cache) would leave it: cloneTruncated with no cut.

// batchPayload is entry i of a batch: 4 KiB, distinguishable.
func batchPayload(batch, i int) []byte {
	p := bytes.Repeat([]byte{byte(batch)}, 4096)
	binary.LittleEndian.PutUint32(p, uint32(batch<<8|i))
	return p
}

// appendBatch writes 8 × 4 KiB entries with one closing sync, the shape
// of an uploaded batch.
func appendBatch(tb testing.TB, l *Log, batch int) {
	tb.Helper()
	for i := 0; i < 7; i++ {
		if err := l.AppendNoSync(batchPayload(batch, i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := l.Append(batchPayload(batch, 7)); err != nil {
		tb.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// appendEntries appends entries 0..n-1 to a fresh log, each synced, and
// returns the offset where they end in segment 1.
func appendEntries(t *testing.T, l *Log, n int) int64 {
	t.Helper()
	end := int64(segHeader)
	for i := 0; i < n; i++ {
		if err := l.Append(entry(i)); err != nil {
			t.Fatal(err)
		}
		end += entryHdr + int64(len(entry(i)))
	}
	return end
}

// TestFillGrowsFileByChunks: 64 batches of 8 × 4 KiB grow the segment
// only now and then, not on every append. While the segment is small the
// fill runs ahead by as much as its entries already hold, so the file
// doubles; after that it grows only when a batch crosses a fill chunk,
// and then to the next chunk boundary.
func TestFillGrowsFileByChunks(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	path := l.segPath(1)
	const batchBytes = 8 * (entryHdr + 4096)
	size := fileSize(t, path)
	var grew []int
	for b := 0; b < 64; b++ {
		appendBatch(t, l, b)
		entriesEnd := int64(segHeader + (b+1)*batchBytes)
		got := fileSize(t, path)
		if got < entriesEnd || got-entriesEnd > entriesEnd-segHeader {
			t.Fatalf("after batch %d: segment is %d bytes, want its %d bytes of entries and no more fill than entries", b, got, entriesEnd)
		}
		if got != size {
			grew = append(grew, b)
			size = got
		}
	}
	// Entries end at 2,101,264 bytes. The file doubles in batches 0, 1,
	// 3, 7 and 15, and grows to 2 MiB and 3 MiB in the batches that
	// cross 1 MiB and 2 MiB.
	if want := []int{0, 1, 3, 7, 15, 31, 63}; !slices.Equal(grew, want) {
		t.Fatalf("the segment grew in batches %v, want %v", grew, want)
	}
	if size != 3*fillChunk {
		t.Fatalf("segment ends at %d bytes, want %d", size, 3*fillChunk)
	}
}

// TestFillSkipsLoneEntry: a segment's first entry gets no fill, so a log
// sealed after every entry (a spool's traffic) writes each entry as if
// there were no fill at all; the second entry gets fill no longer than
// the first.
func TestFillSkipsLoneEntry(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	one := int64(entryHdr + len(entry(0)))
	for i := 0; i < 3; i++ {
		if err := l.Append(entry(0)); err != nil {
			t.Fatal(err)
		}
		_, active := l.Segments()
		if got := fileSize(t, l.segPath(active)); got != segHeader+one {
			t.Fatalf("segment %d holds one entry in %d bytes, want %d", active, got, segHeader+one)
		}
		if _, err := l.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(entry(0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry(0)); err != nil {
		t.Fatal(err)
	}
	_, active := l.Segments()
	if got, want := fileSize(t, l.segPath(active)), segHeader+3*one; got != want {
		t.Fatalf("segment of two entries is %d bytes, want %d: the second entry and fill as long as the first", got, want)
	}
}

// TestFillCrashReopen: a crash with fill behind the last synced entry
// keeps every entry, trims the fill without counting it as torn, and
// the next entry lands right after the last one.
func TestFillCrashReopen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 20
	end := appendEntries(t, l, n)
	crashed := cloneTruncated(t, dir, math.MaxInt64)
	seg := filepath.Join(crashed, filepath.Base(l.segPath(1)))
	if got := fileSize(t, seg); got <= end {
		t.Fatalf("crashed segment is %d bytes, want fill past its entries' %d", got, end)
	}

	l2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Entries != n || st.TruncatedBytes != 0 {
		t.Fatalf("reopen stats = %+v, want %d entries and no torn bytes", st, n)
	}
	if got := fileSize(t, seg); got != end {
		t.Fatalf("reopened segment is %d bytes, want the %d of its entries", got, end)
	}
	if err := l2.Append(entry(n)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(data[end:]); got != uint32(len(entry(n))) {
		t.Fatalf("the entry after the reopen is not at offset %d: length field %#x", end, got)
	}
	got := collect(t, l2)
	if len(got) != n+1 {
		t.Fatalf("replayed %d entries, want %d", len(got), n+1)
	}
	for i, p := range got {
		if !bytes.Equal(p, entry(i)) {
			t.Fatalf("entry %d = %q, want %q", i, p, entry(i))
		}
	}
}

// TestFillTornEntryRecoversPrefix: a crash mid-entry leaves the entry's
// first bytes over the fill. Open keeps the entries before it, counts
// only the torn entry's bytes, and trims the rest.
func TestFillTornEntryRecoversPrefix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 10
	end := appendEntries(t, l, n)
	crashed := cloneTruncated(t, dir, math.MaxInt64)
	seg := filepath.Join(crashed, filepath.Base(l.segPath(1)))

	// Entry n reached the disk as its header and half its payload.
	torn := entry(n)
	var hdr [entryHdr]byte
	putEntryHeader(&hdr, torn)
	part := append(hdr[:], torn[:len(torn)/2]...)
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(part, end); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(crashed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Entries != n || st.TruncatedBytes != int64(len(part)) {
		t.Fatalf("reopen stats = %+v, want %d entries and %d torn bytes", st, n, len(part))
	}
	if got := fileSize(t, seg); got != end {
		t.Fatalf("reopened segment is %d bytes, want %d", got, end)
	}
	got := collect(t, l2)
	if len(got) != n {
		t.Fatalf("replayed %d entries, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, entry(i)) {
			t.Fatalf("entry %d = %q, want %q", i, p, entry(i))
		}
	}
}

// TestSealedSegmentHoldsNoFill: Seal trims the outgoing segment to its
// header and entries, so a crash after it leaves a sealed segment that
// Open accepts as it stands.
func TestSealedSegmentHoldsNoFill(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const n = 12
	end := appendEntries(t, l, n)
	if got := fileSize(t, l.segPath(1)); got <= end {
		t.Fatalf("active segment is %d bytes, want fill past its entries' %d", got, end)
	}
	sealed, err := l.Seal()
	if err != nil {
		t.Fatal(err)
	}
	if sealed != 1 {
		t.Fatalf("sealed segment %d, want 1", sealed)
	}
	if got := fileSize(t, l.segPath(1)); got != end {
		t.Fatalf("sealed segment is %d bytes, want header + entries = %d", got, end)
	}
	if err := l.Append(entry(n)); err != nil {
		t.Fatal(err)
	}

	l2, err := Open(cloneTruncated(t, dir, math.MaxInt64), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if st := l2.Stats(); st.Entries != n+1 || st.TruncatedBytes != 0 {
		t.Fatalf("reopen stats = %+v, want %d entries and no torn bytes", st, n+1)
	}
}
