package central

import (
	"bytes"
	"testing"

	"ptm/internal/record"
)

// FuzzSnapshotLoad feeds arbitrary bytes to LoadFrom as a segment file:
// it must error cleanly on garbage (no panic, no runaway allocation) and
// restore anything it accepts to a store that re-saves canonically.
// Truncating a canonical file by one byte must error, not silently load
// a partial store — a segment is all-or-nothing, unlike the WAL's torn
// tail.
func FuzzSnapshotLoad(f *testing.F) {
	// Seed with a genuine segment so the fuzzer starts from the valid
	// format, plus the liars: empty, header only, a torn record, and the
	// header of the retired PTMS stream.
	srv, err := NewServer(3)
	if err != nil {
		f.Fatal(err)
	}
	rec, err := record.New(7, 1, 64)
	if err != nil {
		f.Fatal(err)
	}
	rec.Bitmap.Set(3)
	if err := srv.Ingest(rec); err != nil {
		f.Fatal(err)
	}
	var seg bytes.Buffer
	if err := srv.SaveTo(&seg); err != nil {
		f.Fatal(err)
	}
	torn := bytes.Clone(seg.Bytes())
	torn[len(torn)-1] ^= 0xff
	f.Add(seg.Bytes())
	f.Add([]byte{})
	f.Add(seg.Bytes()[:64])
	f.Add(torn)
	f.Add(ptmsHeader)

	f.Fuzz(func(t *testing.T, data []byte) {
		fresh, err := NewServer(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := fresh.LoadFrom(writeFile(t, data)); err != nil {
			return // rejected cleanly
		}
		// Accepted input: the store re-saves, and the re-save is a fixed
		// point — loading it yields the same bytes again.
		canon := snapshotBytes(t, fresh)
		again, err := NewServer(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := again.LoadFrom(writeFile(t, canon)); err != nil {
			t.Fatalf("canonical re-save does not load: %v", err)
		}
		if !bytes.Equal(snapshotBytes(t, again), canon) {
			t.Fatal("canonical re-save is not a fixed point")
		}

		// A strict prefix of the canonical file must never load: every
		// byte of it is load-bearing.
		trunc, err := NewServer(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := trunc.LoadFrom(writeFile(t, canon[:len(canon)-1])); err == nil {
			t.Fatal("truncated segment loaded without error")
		}
	})
}
