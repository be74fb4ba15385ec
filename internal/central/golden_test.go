package central

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/synth"
	"ptm/internal/wal"
)

// The golden tree under testdata/golden pins the on-disk formats a
// restart reads: wal/ holds a checkpoint segment, one sealed log
// segment and an active log segment with a torn tail; cold/ holds the
// tiered store's frozen segments. want.txt is the census and the four
// estimators over the recovered store. A change to any of those formats
// fails TestGoldenFixture (old files no longer recover to the same
// answers) or TestGoldenFixtureRegenerates (the writers no longer
// produce the committed bytes), so it cannot land silently.

const (
	goldenDir    = "testdata/golden"
	goldenBudget = 1 << 10 // resident bytes: a few records, so freezes run
	goldenLocA   = 7
	goldenLocB   = 8
)

var goldenPeriods = []record.PeriodID{1, 2, 3, 4, 5}

// openGolden mounts a tiered store over root/cold behind a WAL in
// root/wal, recovering whatever both hold.
func openGolden(t *testing.T, root string) *Durable {
	t.Helper()
	ts, err := store.OpenTiered(filepath.Join(root, "cold"), store.TieredOptions{ResidentBudget: goldenBudget})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServerWithStore(3, ts)
	if err != nil {
		t.Fatal(err)
	}
	d, err := OpenDurableServer(filepath.Join(root, "wal"), srv, wal.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// closeGolden closes the log and then the store.
func closeGolden(t *testing.T, d *Durable) {
	t.Helper()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.CloseStore(); err != nil {
		t.Fatal(err)
	}
}

// writeGolden builds the golden tree under root: periods 1–3 of both
// locations end up in the checkpoint (and partly cold), periods 4–5 in
// a sealed log segment, and period 6 in the active segment, whose last
// entry is then torn.
func writeGolden(t *testing.T, root string) {
	t.Helper()
	g, err := synth.NewGenerator(23, 3)
	if err != nil {
		t.Fatal(err)
	}
	pair, err := g.Pair(synth.PairConfig{
		LocA: goldenLocA, LocB: goldenLocB,
		VolumesA: []int{300, 340, 310, 360, 320, 330},
		VolumesB: []int{600, 640, 610, 660, 620, 630},
		NCommon:  90,
	})
	if err != nil {
		t.Fatal(err)
	}
	d := openGolden(t, root)
	ingest := func(first, last int) {
		for i := first - 1; i < last; i++ {
			for _, set := range []*record.Set{pair.SetA, pair.SetB} {
				rec := &record.Record{Location: set.Location(), Period: set.Periods()[i], Bitmap: set.Bitmaps()[i]}
				if err := d.Ingest(rec); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ingest(1, 3)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ingest(4, 5)
	if _, err := d.Log().Seal(); err != nil {
		t.Fatal(err)
	}
	ingest(6, 6)
	_, active := d.Log().Segments()
	closeGolden(t, d)
	segs, err := walSegments(filepath.Join(root, "wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal segments: %v, %v", segs, err)
	}
	last := segs[len(segs)-1]
	if !strings.HasSuffix(last, fmt.Sprintf("%018d.wal", active)) {
		t.Fatalf("newest segment %s is not the active one (%d)", last, active)
	}
	if err := truncateBy(last, 9); err != nil {
		t.Fatal(err)
	}
}

// goldenReport renders the census and the four estimators exactly (hex
// floats), one fact per line.
func goldenReport(t *testing.T, s *Server) string {
	t.Helper()
	var b strings.Builder
	for _, loc := range s.Locations() {
		fmt.Fprintf(&b, "census loc=%d periods=%v\n", loc, s.Periods(loc))
	}
	vol, err := s.Volume(goldenLocA, 1)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := s.PointPersistent(goldenLocA, goldenPeriods)
	if err != nil {
		t.Fatal(err)
	}
	p2p, err := s.PointToPointPersistent(goldenLocA, goldenLocB, goldenPeriods)
	if err != nil {
		t.Fatal(err)
	}
	od, err := s.ODVolume(goldenLocA, goldenLocB, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []struct {
		name string
		v    float64
	}{
		{fmt.Sprintf("volume loc=%d period=1", goldenLocA), vol},
		{fmt.Sprintf("point loc=%d periods=%v", goldenLocA, goldenPeriods), pp.Estimate},
		{fmt.Sprintf("p2p locs=%d,%d periods=%v", goldenLocA, goldenLocB, goldenPeriods), p2p.Estimate},
		{fmt.Sprintf("od locs=%d,%d period=2", goldenLocA, goldenLocB), od},
	} {
		fmt.Fprintf(&b, "%s = %.10g (%x)\n", e.name, e.v, e.v)
	}
	return b.String()
}

// copyTree copies the regular files of src's subdirectories wal and cold
// into dst, so a test can recover (and so repair) them in place.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	for _, sub := range []string{"wal", "cold"} {
		if err := os.MkdirAll(filepath.Join(dst, sub), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range treeFiles(t, filepath.Join(src, sub)) {
			data, err := os.ReadFile(filepath.Join(src, sub, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dst, sub, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// treeFiles lists dir's file names, sorted.
func treeFiles(t *testing.T, dir string) []string {
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

// TestGoldenFixture recovers the committed tree and diffs the census
// and all four estimators against want.txt.
func TestGoldenFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join(goldenDir, "want.txt"))
	if err != nil {
		t.Fatal(err)
	}
	// The tree has every shape a restart meets.
	var ckpts, logs int
	for _, name := range treeFiles(t, filepath.Join(goldenDir, "wal")) {
		switch filepath.Ext(name) {
		case ".ckpt":
			ckpts++
		case ".wal":
			logs++
		}
	}
	if ckpts != 1 || logs != 2 || len(treeFiles(t, filepath.Join(goldenDir, "cold"))) == 0 {
		t.Fatalf("golden tree lost a shape: %d checkpoints, %d log segments", ckpts, logs)
	}

	root := t.TempDir()
	copyTree(t, goldenDir, root)
	d := openGolden(t, root)
	defer closeGolden(t, d)
	if st := d.LogStats(); st.TruncatedBytes == 0 {
		t.Fatal("the active log segment's torn tail was not repaired")
	}
	if st := d.Stats(); st.ColdRecords == 0 {
		t.Fatalf("no record recovered cold: %+v", st)
	}
	if got := goldenReport(t, d.Server); got != string(want) {
		t.Fatalf("recovered golden tree differs\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestGoldenFixtureRegenerates writes the golden tree afresh and
// requires the committed bytes, file for file.
func TestGoldenFixtureRegenerates(t *testing.T) {
	root := t.TempDir()
	writeGolden(t, root)
	for _, sub := range []string{"wal", "cold"} {
		got, want := treeFiles(t, filepath.Join(root, sub)), treeFiles(t, filepath.Join(goldenDir, sub))
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Fatalf("%s: files %v, committed %v", sub, got, want)
		}
		for _, name := range got {
			a, err := os.ReadFile(filepath.Join(root, sub, name))
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(goldenDir, sub, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s/%s differs from the committed bytes", sub, name)
			}
		}
	}
}
