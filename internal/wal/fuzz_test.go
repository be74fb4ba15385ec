package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReplay: segment files come back from disks that crashed, filled
// up, or bit-rotted. Opening and replaying arbitrary bytes must error
// cleanly, never panic; and a valid prefix followed by a torn tail must
// recover exactly the prefix.
func FuzzReplay(f *testing.F) {
	// Seeds: a well-formed segment, an empty file, garbage, and a
	// well-formed segment with a torn final entry.
	var seg bytes.Buffer
	var hdr [segHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], segMagic)
	hdr[4] = segVersion
	binary.LittleEndian.PutUint64(hdr[8:16], 1)
	seg.Write(hdr[:])
	for _, p := range [][]byte{[]byte("alpha"), []byte("beta"), {}} {
		var eh [entryHdr]byte
		binary.LittleEndian.PutUint32(eh[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(eh[4:8], crc32.Checksum(p, castagnoli))
		seg.Write(eh[:])
		seg.Write(p)
	}
	f.Add(seg.Bytes(), uint16(0))
	f.Add([]byte{}, uint16(3))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint16(9))
	f.Add(seg.Bytes()[:seg.Len()-3], uint16(1))

	f.Fuzz(func(t *testing.T, data []byte, cut uint16) {
		// Phase 1 — robustness: the input IS the tail segment. Open
		// must repair or reject, never panic, and the result must
		// replay and append cleanly.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "000000000000000001"+segSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err == nil {
			if rerr := l.Replay(func([]byte) error { return nil }); rerr != nil {
				t.Fatalf("replay of repaired segment failed: %v", rerr)
			}
			if aerr := l.Append([]byte("post")); aerr != nil {
				t.Fatalf("append after repair failed: %v", aerr)
			}
			if cerr := l.Close(); cerr != nil {
				t.Fatalf("close: %v", cerr)
			}
		}

		// Phase 2 — prefix recovery: build a valid log from chunks of
		// the input, cut the file at an arbitrary point, and require
		// replay to return exactly a prefix of the chunks.
		dir2 := t.TempDir()
		l2, err := Open(dir2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var chunks [][]byte
		for i := 0; i < len(data); i += 32 {
			end := i + 32
			if end > len(data) {
				end = len(data)
			}
			chunks = append(chunks, data[i:end])
			if err := l2.Append(data[i:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir2, "000000000000000001"+segSuffix)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		cutAt := int64(cut) % (st.Size() + 1)
		if err := os.Truncate(path, cutAt); err != nil {
			t.Fatal(err)
		}
		l3, err := Open(dir2, Options{})
		if err != nil {
			t.Fatalf("open after cut at %d: %v", cutAt, err)
		}
		var got [][]byte
		if err := l3.Replay(func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		}); err != nil {
			t.Fatalf("replay after cut at %d: %v", cutAt, err)
		}
		if len(got) > len(chunks) {
			t.Fatalf("recovered %d entries from %d appended", len(got), len(chunks))
		}
		for i, p := range got {
			if !bytes.Equal(p, chunks[i]) {
				t.Fatalf("cut %d: entry %d not a prefix match", cutAt, i)
			}
		}
		if err := l3.Close(); err != nil {
			t.Fatal(err)
		}
	})
}
