package rsu

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptm/internal/record"
)

// The golden tree under testdata/golden pins the spool's on-disk form as
// a restarted rsud meets it after a crash: spool/ holds one sealed log
// segment (periods 1–3) and an active segment (periods 4–5) whose last
// record is torn. want.txt lists the records a drain must deliver, in
// order. A change to the spool's log format fails TestSpoolGoldenDrain
// (old spools no longer drain to the same records) or
// TestSpoolGoldenRegenerates (the writer no longer produces the
// committed bytes). Regenerate deliberately with
// PTM_UPDATE_GOLDEN=1 go test ./internal/rsu -run SpoolGolden.

const (
	spoolGoldenDir = "testdata/golden"
	spoolGoldenLoc = 11
)

// goldenSpoolRecords are the five records the golden spool was written
// from: 256-bit bitmaps with seeded bits.
func goldenSpoolRecords(t *testing.T) []*record.Record {
	t.Helper()
	rng := rand.New(rand.NewSource(32))
	recs := make([]*record.Record, 5)
	for i := range recs {
		rec, err := record.New(spoolGoldenLoc, record.PeriodID(i+1), 256)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 64; k++ {
			rec.Bitmap.Set(rng.Uint64())
		}
		recs[i] = rec
	}
	return recs
}

// writeSpoolGolden builds the golden spool in dir: periods 1–3 in a
// sealed segment, 4–5 in the active one, whose tail then loses 9 bytes
// (period 5's record is torn).
func writeSpoolGolden(t *testing.T, dir string) {
	t.Helper()
	recs := goldenSpoolRecords(t)
	s, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, rec := range recs {
		if i == 3 {
			if _, err := s.log.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Enqueue(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	files := spoolFiles(t, dir)
	if len(files) != 2 {
		t.Fatalf("golden spool holds %v, want a sealed and an active segment", files)
	}
	active := filepath.Join(dir, files[len(files)-1])
	fi, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, fi.Size()-9); err != nil {
		t.Fatal(err)
	}
}

// spoolFiles lists dir's file names, sorted.
func spoolFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// spoolReport renders records one per line: identity, size, popcount
// and a digest of the marshaled bytes.
func spoolReport(t *testing.T, recs []*record.Record) string {
	t.Helper()
	var b strings.Builder
	for _, rec := range recs {
		blob, err := rec.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "loc=%d period=%d bits=%d ones=%d sha256=%x\n",
			rec.Location, rec.Period, rec.Size(), rec.Bitmap.Ones(), sha256.Sum256(blob))
	}
	return b.String()
}

// TestSpoolGoldenDrain reopens a copy of the committed spool and drains
// it: the torn record is repaired away and the four whole ones arrive in
// upload order, exactly as want.txt and the writer's records say.
func TestSpoolGoldenDrain(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(spoolGoldenDir, "want.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := spoolReport(t, goldenSpoolRecords(t)[:4]); got != string(want) {
		t.Fatalf("want.txt no longer describes the writer's first four records\n--- writer\n%s--- want.txt\n%s", got, want)
	}
	src := filepath.Join(spoolGoldenDir, "spool")
	dir := t.TempDir()
	for _, name := range spoolFiles(t, src) {
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, err := OpenSpool(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Pending(); got != 4 {
		t.Fatalf("Pending = %d, want the 4 whole records", got)
	}
	var got []*record.Record
	n, err := s.Drain(func(recs []*record.Record) (int, error) {
		got = recs
		return len(recs), nil
	})
	if err != nil || n != 4 {
		t.Fatalf("Drain = %d, %v", n, err)
	}
	if rep := spoolReport(t, got); rep != string(want) {
		t.Fatalf("drained records differ\n--- got\n%s--- want\n%s", rep, want)
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d after the drain", s.Pending())
	}
}

// TestSpoolGoldenRegenerates writes the golden spool afresh and requires
// the committed bytes, file for file; PTM_UPDATE_GOLDEN=1 rewrites the
// fixture first.
func TestSpoolGoldenRegenerates(t *testing.T) {
	dir := t.TempDir()
	writeSpoolGolden(t, dir)
	committed := filepath.Join(spoolGoldenDir, "spool")
	if os.Getenv("PTM_UPDATE_GOLDEN") != "" {
		if err := os.RemoveAll(committed); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(committed, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range spoolFiles(t, dir) {
			data, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(committed, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want := spoolReport(t, goldenSpoolRecords(t)[:4])
		if err := os.WriteFile(filepath.Join(spoolGoldenDir, "want.txt"), []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, want := spoolFiles(t, dir), spoolFiles(t, committed)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("files %v, committed %v", got, want)
	}
	for _, name := range got {
		a, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(committed, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s differs from the committed bytes; regenerate with PTM_UPDATE_GOLDEN=1 if the change is intended", name)
		}
	}
}
