package store

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"ptm/internal/bitmap"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// testRecord builds a deterministic record with ~25% bit density.
func testRecord(rng *rand.Rand, loc vhash.LocationID, p record.PeriodID, nbits int) *record.Record {
	rec, err := record.New(loc, p, nbits)
	if err != nil {
		panic(err)
	}
	for i := 0; i < nbits/4; i++ {
		rec.Bitmap.Set(rng.Uint64())
	}
	return rec
}

// testRecords builds a sorted batch across several locations and sizes.
func testRecords(rng *rand.Rand, nLocs, nPeriods int) []*record.Record {
	sizes := []int{64, 256, 1024, 8192}
	var recs []*record.Record
	for l := 0; l < nLocs; l++ {
		for p := 0; p < nPeriods; p++ {
			nbits := sizes[rng.Intn(len(sizes))]
			recs = append(recs, testRecord(rng, vhash.LocationID(l+1), record.PeriodID(p+1), nbits))
		}
	}
	return recs
}

func writeTestSegment(t *testing.T, recs []*record.Record) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSegment(&buf, recs); err != nil {
		t.Fatalf("WriteSegment: %v", err)
	}
	path := filepath.Join(t.TempDir(), segFileName(1))
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("writing segment file: %v", err)
	}
	return path, buf.Bytes()
}

func TestSegmentRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	recs := testRecords(rng, 3, 5)
	path, raw := writeTestSegment(t, recs)

	if len(raw)%segPageAlign == 0 && len(raw) < segPageAlign {
		t.Fatalf("segment implausibly small: %d bytes", len(raw))
	}

	seg, err := OpenSegment(path, 1)
	if err != nil {
		t.Fatalf("OpenSegment: %v", err)
	}
	defer seg.Close()
	if len(seg.entries) != len(recs) {
		t.Fatalf("entries = %d, want %d", len(seg.entries), len(recs))
	}
	for i, rec := range recs {
		j := seg.find(rec.Location, rec.Period)
		if j != i {
			t.Fatalf("find(loc=%d, p=%d) = %d, want %d", rec.Location, rec.Period, j, i)
		}
		if err := seg.verifyEntry(j); err != nil {
			t.Fatalf("verifyEntry(%d): %v", j, err)
		}
		view, err := fromColdWords(seg.entryWords(j))
		if err != nil {
			t.Fatalf("fromColdWords: %v", err)
		}
		if !view.Equal(rec.Bitmap) {
			t.Fatalf("mapped record %d differs from the original", i)
		}
		if seg.entries[j].off%segWordAlign != 0 {
			t.Fatalf("entry %d words at %d not %d-byte aligned", j, seg.entries[j].off, segWordAlign)
		}
	}
	if seg.find(99, 99) != -1 {
		t.Fatal("find invented a record")
	}

	// The reader path returns equal records in order.
	var got []*record.Record
	if err := ReadSegment(path, skipNone, func(r *record.Record) error {
		got = append(got, r)
		return nil
	}); err != nil {
		t.Fatalf("ReadSegment: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("reader returned %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i].Location != recs[i].Location || got[i].Period != recs[i].Period || !got[i].Bitmap.Equal(recs[i].Bitmap) {
			t.Fatalf("reader record %d differs", i)
		}
	}
}

// skipNone is the ReadSegment skip predicate that reads every record.
func skipNone(vhash.LocationID, record.PeriodID) bool { return false }

func TestWriteSegmentRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var buf bytes.Buffer
	// An empty record set is not rejected: it is a valid zero-record
	// segment (what an emptied store checkpoints to).
	if err := WriteSegment(&buf, nil); err != nil {
		t.Fatalf("empty segment rejected: %v", err)
	}
	if entries, err := parseSegment(buf.Bytes()); err != nil || len(entries) != 0 {
		t.Fatalf("empty segment parses to %d entries, %v", len(entries), err)
	}
	a := testRecord(rng, 2, 1, 64)
	b := testRecord(rng, 1, 1, 64)
	if err := WriteSegment(&buf, []*record.Record{a, b}); err == nil {
		t.Fatal("unsorted records accepted")
	}
	if err := WriteSegment(&buf, []*record.Record{a, a}); err == nil {
		t.Fatal("duplicate record accepted")
	}
	if err := WriteSegment(&buf, []*record.Record{{Location: 1, Period: 1}}); err == nil {
		t.Fatal("nil bitmap accepted")
	}
}

// refixHeaderCRC recomputes the header checksum after a deliberate
// header mutation, so the test reaches the deeper validation.
func refixHeaderCRC(data []byte) {
	putU32(data[60:64], crc32.ChecksumIEEE(data[:60]))
}

func TestParseSegmentRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recs := testRecords(rng, 2, 3)
	_, raw := writeTestSegment(t, recs)

	if _, err := parseSegment(raw); err != nil {
		t.Fatalf("pristine segment rejected: %v", err)
	}

	mutate := func(name string, f func(d []byte) []byte) {
		d := append([]byte(nil), raw...)
		d = f(d)
		if _, err := parseSegment(d); err == nil {
			t.Fatalf("%s: corrupt segment accepted", name)
		}
	}
	mutate("truncated header", func(d []byte) []byte { return d[:32] })
	mutate("truncated index", func(d []byte) []byte { return d[:segHeaderLen+10] })
	mutate("truncated data", func(d []byte) []byte { return d[:len(d)-64] })
	mutate("bad magic", func(d []byte) []byte { d[0] ^= 0xff; return d })
	mutate("bad version", func(d []byte) []byte { d[4] = 9; refixHeaderCRC(d); return d })
	mutate("torn header", func(d []byte) []byte { d[17] ^= 0x01; return d })
	mutate("lying count", func(d []byte) []byte { d[8]++; refixHeaderCRC(d); return d })
	mutate("torn index", func(d []byte) []byte { d[segHeaderLen] ^= 0x40; return d })
	mutate("lying data offset", func(d []byte) []byte {
		putU64(d[24:32], 1<<40)
		refixHeaderCRC(d)
		return d
	})
	mutate("trailing garbage", func(d []byte) []byte { return append(d, 0xcc) })

	// A lying index entry (out-of-bounds word offset) with both CRCs
	// refixed must still fail bounds validation, not read out of range.
	d := append([]byte(nil), raw...)
	count := int(leU32(d[8:12]))
	entBase := segHeaderLen
	putU64(d[entBase+16:entBase+24], uint64(len(d))) // first entry's wordOff -> EOF
	idxLen := count*segEntryLen + 4
	putU32(d[segHeaderLen+idxLen-4:], crc32.ChecksumIEEE(d[segHeaderLen:segHeaderLen+idxLen-4]))
	if _, err := parseSegment(d); err == nil {
		t.Fatal("lying index entry accepted")
	}

	// Data corruption is the lazy check's job: parse succeeds, the
	// per-record verify fails.
	d = append([]byte(nil), raw...)
	dataOff := leU64(d[24:32])
	d[dataOff] ^= 0x01
	entries, err := parseSegment(d)
	if err != nil {
		t.Fatalf("data corruption rejected at parse time (should be lazy): %v", err)
	}
	hit := false
	for i := range entries {
		e := &entries[i]
		if crc32.ChecksumIEEE(d[e.off:e.off+e.wordBytes()]) != e.crc {
			hit = true
		}
	}
	if !hit {
		t.Fatal("flipped data bit not caught by any record CRC")
	}
	path := filepath.Join(t.TempDir(), segFileName(2))
	if err := os.WriteFile(path, d, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ReadSegment(path, skipNone, func(*record.Record) error { return nil }); err == nil {
		t.Fatal("reader path accepted corrupt record data")
	}
	// A skipped record is never read, so its damage goes unnoticed.
	skipAll := func(vhash.LocationID, record.PeriodID) bool { return true }
	if err := ReadSegment(path, skipAll, func(*record.Record) error { return nil }); err != nil {
		t.Fatalf("reader verified a skipped record: %v", err)
	}
}

// FuzzSegmentLoad is the lying-bytes contract: whatever the input —
// truncated, torn, or with an index that lies about offsets — the
// parser must return an error or records, never panic, never index out
// of bounds, and never allocate proportionally to claimed-but-absent
// data.
func FuzzSegmentLoad(f *testing.F) {
	rng := rand.New(rand.NewSource(4))
	_, raw := writeTestSegmentF(f, testRecords(rng, 2, 2))
	f.Add(raw)
	f.Add(raw[:segHeaderLen])
	f.Add(raw[:len(raw)-1])
	f.Add([]byte{})
	trunc := append([]byte(nil), raw[:200]...)
	f.Add(trunc)
	torn := append([]byte(nil), raw...)
	torn[len(torn)/2] ^= 0xff
	f.Add(torn)

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := parseSegment(data)
		if err != nil {
			return
		}
		// Whatever parsed must stay in bounds under full reads, and every
		// entry must wrap as a bitmap (the parser vetted its size).
		for i := range entries {
			e := &entries[i]
			_ = crc32.ChecksumIEEE(data[e.off : e.off+e.wordBytes()])
			words := make([]uint64, e.nbits/64)
			for j := range words {
				words[j] = leU64(data[e.off+uint64(j)*8:])
			}
			bm, err := bitmap.FromWords(words)
			if err != nil {
				t.Fatalf("entry %d: %v", i, err)
			}
			_ = bm.Ones()
		}
	})
}

// writeTestSegmentF is writeTestSegment for fuzz seeding.
func writeTestSegmentF(f *testing.F, recs []*record.Record) (string, []byte) {
	f.Helper()
	var buf bytes.Buffer
	if err := WriteSegment(&buf, recs); err != nil {
		f.Fatalf("WriteSegment: %v", err)
	}
	return "", buf.Bytes()
}

func TestScanSegmentDir(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(5))
	for _, id := range []uint64{3, 1, 7} {
		var buf bytes.Buffer
		if err := WriteSegment(&buf, testRecords(rng, 1, 1)); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segFileName(id)), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Leftover temp from an interrupted freeze and an unrelated file.
	if err := os.WriteFile(filepath.Join(dir, segFileName(9)+".tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ids, err := scanSegmentDir(dir)
	if err != nil {
		t.Fatalf("scanSegmentDir: %v", err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 3 || ids[2] != 7 {
		t.Fatalf("ids = %v, want [1 3 7]", ids)
	}
	if _, err := os.Stat(filepath.Join(dir, segFileName(9)+".tmp")); !os.IsNotExist(err) {
		t.Fatal("interrupted-freeze temp file not swept")
	}
}

func TestWordsViewZeroCopy(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("zero-copy view requires a little-endian host")
	}
	b := bitmap.MustNew(256)
	b.Set(1)
	// Back the buffer with []uint64 so 8-byte alignment is guaranteed,
	// exactly like the mmap fallback path (mappings are page aligned).
	backing := make([]uint64, 5)
	raw := unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), len(backing)*8)
	words := b.Uint64s()
	base := 8
	for i, w := range words {
		putU64(raw[base+i*8:], w)
	}
	v := wordsView(raw, base, 4)
	if v[0] != words[0] {
		t.Fatalf("view[0] = %#x, want %#x", v[0], words[0])
	}
	raw[base] ^= 0xff
	if v[0] == words[0] {
		t.Fatal("view copied instead of aliasing on an aligned little-endian host")
	}
}

// TestLEChunksMatchesEncoding: both leChunks paths — the aliasing one and
// the chunked one a big-endian host takes — emit the words' little-endian
// encoding.
func TestLEChunksMatchesEncoding(t *testing.T) {
	words := []uint64{0x0102030405060708, 0x1122334455667788, 3, 0xffffffffffffffff, 5}
	want := make([]byte, len(words)*8)
	for i, w := range words {
		putU64(want[i*8:], w)
	}
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	for _, le := range []bool{hostLittleEndian, false} {
		hostLittleEndian = le
		var got []byte
		if err := leChunks(words, make([]byte, 16), func(b []byte) error {
			got = append(got, b...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("hostLittleEndian=%v: % x, want % x", le, got, want)
		}
	}
}
