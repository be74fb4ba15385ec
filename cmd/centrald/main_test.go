package main

import (
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

// requireSegment fails the test unless path opens as a store segment —
// the one on-disk format of a record set.
func requireSegment(t *testing.T, path string) {
	t.Helper()
	seg, err := store.OpenSegment(path, 0)
	if err != nil {
		t.Fatalf("%s is not a store segment: %v", filepath.Base(path), err)
	}
	if err := seg.Close(); err != nil {
		t.Fatal(err)
	}
}

// startDaemon runs serve() in a goroutine on ephemeral ports and returns
// the TCP address, a shutdown function, and the exit channel.
func startDaemon(t *testing.T, cfg config) (addr string, shutdown func(), done <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	cfg.listen = "127.0.0.1:0"
	cfg.ready = ready
	sigc := make(chan os.Signal, 1)
	exit := make(chan error, 1)
	logger := log.New(io.Discard, "", 0)
	go func() { exit <- serve(cfg, logger, sigc) }()
	select {
	case addr = <-ready:
	case err := <-exit:
		t.Fatalf("daemon exited early: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("daemon did not become ready")
	}
	return addr, func() { sigc <- syscall.SIGTERM }, exit
}

func TestDaemonLifecycleWithSnapshot(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "records.seg")

	// First run: ingest one record, shut down, snapshot written.
	addr, shutdown, done := startDaemon(t, config{s: 3, save: snap})
	client, err := transport.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := record.New(9, 4, 128)
	if err != nil {
		t.Fatal(err)
	}
	rec.Bitmap.Set(5)
	if err := client.Upload(rec); err != nil {
		t.Fatal(err)
	}
	_ = client.Close()
	shutdown()
	if err := <-done; err != nil {
		t.Fatalf("first run exit: %v", err)
	}
	requireSegment(t, snap)

	// Second run: restore the snapshot, query the record back.
	addr2, shutdown2, done2 := startDaemon(t, config{s: 3, load: snap})
	client2, err := transport.Dial(addr2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := client2.ListLocations()
	if err != nil || len(locs) != 1 || locs[0] != 9 {
		t.Fatalf("restored locations = %v, %v", locs, err)
	}
	vol, err := client2.QueryVolume(9, 4)
	if err != nil || vol <= 0 {
		t.Fatalf("restored volume = %v, %v", vol, err)
	}
	_ = client2.Close()
	shutdown2()
	if err := <-done2; err != nil {
		t.Fatalf("second run exit: %v", err)
	}
}

func TestDaemonHTTPAdmin(t *testing.T) {
	httpReady := make(chan string, 1)
	_, shutdown, done := startDaemon(t, config{s: 3, httpAddr: "127.0.0.1:0", httpReady: httpReady})
	defer func() {
		shutdown()
		<-done
	}()
	var httpAddr string
	select {
	case httpAddr = <-httpReady:
	case <-time.After(5 * time.Second):
		t.Fatal("http admin did not come up")
	}
	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Errorf("healthz = %d %q, %v", resp.StatusCode, body, err)
	}
}

// TestDaemonWALGracefulShutdown kills the daemon (SIGTERM) mid-ingest
// and requires the restarted daemon to replay the exact census: every
// acknowledged record present, nothing else.
func TestDaemonWALGracefulShutdown(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")

	addr, shutdown, done := startDaemon(t, config{s: 3, walDir: walDir, ckptEvery: 7})
	client, err := transport.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var want []*record.Record
	for p := 1; p <= 20; p++ {
		rec, err := record.New(vhash.LocationID(p%2+3), record.PeriodID(p), 128)
		if err != nil {
			t.Fatal(err)
		}
		rec.Bitmap.Set(uint64(p))
		if err := client.Upload(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	// SIGTERM while the client connection is still open: the daemon
	// must stop accepting, flush, checkpoint, and exit cleanly.
	shutdown()
	if err := <-done; err != nil {
		t.Fatalf("wal run exit: %v", err)
	}
	_ = client.Close()
	// A graceful shutdown checkpointed, so a checkpoint file must exist.
	matches, err := filepath.Glob(filepath.Join(walDir, "*.ckpt"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no checkpoint after graceful shutdown: %v %v", matches, err)
	}
	for _, ckpt := range matches {
		requireSegment(t, ckpt)
	}

	// Restart on the same directory: exact census.
	addr2, shutdown2, done2 := startDaemon(t, config{s: 3, walDir: walDir, ckptEvery: 7})
	client2, err := transport.Dial(addr2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	census := map[uint64][]record.PeriodID{}
	locs, err := client2.ListLocations()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, loc := range locs {
		ps, err := client2.ListPeriods(loc)
		if err != nil {
			t.Fatal(err)
		}
		census[uint64(loc)] = ps
		total += len(ps)
	}
	if total != len(want) {
		t.Fatalf("recovered %d records, want %d (census %v)", total, len(want), census)
	}
	for _, rec := range want {
		found := false
		for _, p := range census[uint64(rec.Location)] {
			found = found || p == rec.Period
		}
		if !found {
			t.Fatalf("acked record loc=%d period=%d lost across restart", rec.Location, rec.Period)
		}
	}
	// Re-uploading a recovered record must be rejected as a duplicate:
	// replay really did restore it.
	if err := client2.Upload(want[0]); !transport.IsRemote(err) {
		t.Fatalf("re-upload err = %v, want duplicate rejection", err)
	}
	_ = client2.Close()
	shutdown2()
	if err := <-done2; err != nil {
		t.Fatalf("restart exit: %v", err)
	}
}

func TestDaemonWALExcludesSnapshotFlags(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	err := serve(config{s: 3, walDir: t.TempDir(), load: "x.ptm"}, logger, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "exclusive") {
		t.Errorf("wal+load err = %v", err)
	}
}

func TestDaemonBadSnapshotPath(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	err := serve(config{s: 3, listen: "127.0.0.1:0", load: "/does/not/exist.ptm"}, logger, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "snapshot") {
		t.Errorf("bad load err = %v", err)
	}
}

func TestParseFlags(t *testing.T) {
	cfg := parseFlags([]string{"-listen", "1.2.3.4:9", "-s", "5", "-save", "x.ptm"})
	if cfg.listen != "1.2.3.4:9" || cfg.s != 5 || cfg.save != "x.ptm" || cfg.httpAddr != "" {
		t.Errorf("cfg = %+v", cfg)
	}
}

func TestParseByteSize(t *testing.T) {
	good := map[string]int64{
		"0":     0,
		"1024":  1024,
		"64K":   64 << 10,
		"64KB":  64 << 10,
		"64KiB": 64 << 10,
		"256M":  256 << 20,
		"2G":    2 << 30,
		"1T":    1 << 40,
		" 8M ":  8 << 20,
	}
	for in, want := range good {
		got, err := parseByteSize(in)
		if err != nil || got != want {
			t.Errorf("parseByteSize(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"", "-1", "64Q", "M", "1.5G", "9999999999999G"} {
		if _, err := parseByteSize(in); err == nil {
			t.Errorf("parseByteSize(%q) accepted", in)
		}
	}
}

func TestStoreFlagValidation(t *testing.T) {
	logger := log.New(io.Discard, "", 0)
	cases := []struct {
		cfg  config
		want string
	}{
		{config{s: 3, storeKind: "bogus"}, "unknown -store"},
		{config{s: 3, storeKind: "tiered"}, "requires -cold"},
		{config{s: 3, storeKind: "mmap"}, "requires -cold"},
		{config{s: 3, coldDir: "/tmp/x"}, "require -store"},
		{config{s: 3, budget: "64M"}, "require -store"},
		{config{s: 3, storeKind: "tiered", coldDir: "/dev/null/x", budget: "nope"}, "-resident-budget"},
	}
	for _, c := range cases {
		err := serve(c.cfg, logger, make(chan os.Signal))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("cfg %+v: err = %v, want %q", c.cfg, err, c.want)
		}
	}
	// mmap is read-only: -wal and -resident-budget are rejected.
	dir := t.TempDir()
	err := serve(config{s: 3, storeKind: "mmap", coldDir: dir, walDir: t.TempDir()}, logger, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("mmap+wal err = %v", err)
	}
	err = serve(config{s: 3, storeKind: "mmap", coldDir: dir, budget: "1M"}, logger, make(chan os.Signal))
	if err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Errorf("mmap+budget err = %v", err)
	}
}

// TestDaemonTieredLifecycle runs the daemon over a tiered store with a
// budget small enough to freeze mid-stream, restarts it on the same
// cold directory, and checks every record survives in the cold tier.
func TestDaemonTieredLifecycle(t *testing.T) {
	coldDir := filepath.Join(t.TempDir(), "cold")

	cfg := config{s: 3, storeKind: "tiered", coldDir: coldDir, budget: "4K"}
	addr, shutdown, done := startDaemon(t, cfg)
	client, err := transport.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for p := 1; p <= 8; p++ {
		rec, err := record.New(7, record.PeriodID(p), 8192)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 512; i++ {
			rec.Bitmap.Set(uint64(p*8192 + i*13))
		}
		if err := client.Upload(rec); err != nil {
			t.Fatal(err)
		}
	}
	vol, err := client.QueryVolume(7, 1)
	if err != nil || vol <= 0 {
		t.Fatalf("volume over tiered store = %v, %v", vol, err)
	}
	_ = client.Close()
	shutdown()
	if err := <-done; err != nil {
		t.Fatalf("tiered run exit: %v", err)
	}
	segs, err := filepath.Glob(filepath.Join(coldDir, "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments frozen under %s: %v %v", coldDir, segs, err)
	}

	// A read-only mmap head over the same directory serves the cold
	// records (hot-only ones are gone — mmap sees just the segments).
	addr2, shutdown2, done2 := startDaemon(t, config{s: 3, storeKind: "mmap", coldDir: coldDir})
	client2, err := transport.Dial(addr2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	locs, err := client2.ListLocations()
	if err != nil || len(locs) != 1 || locs[0] != 7 {
		t.Fatalf("mmap head locations = %v, %v", locs, err)
	}
	ps, err := client2.ListPeriods(7)
	if err != nil || len(ps) == 0 {
		t.Fatalf("mmap head periods = %v, %v", ps, err)
	}
	vol2, err := client2.QueryVolume(7, ps[0])
	if err != nil || vol2 <= 0 {
		t.Fatalf("mmap head volume = %v, %v", vol2, err)
	}
	// Uploads are rejected by the read-only head.
	rec, err := record.New(8, 1, 128)
	if err != nil {
		t.Fatal(err)
	}
	if err := client2.Upload(rec); !transport.IsRemote(err) {
		t.Fatalf("read-only upload err = %v, want remote rejection", err)
	}
	_ = client2.Close()
	shutdown2()
	if err := <-done2; err != nil {
		t.Fatalf("mmap run exit: %v", err)
	}
}

// TestDaemonTieredWAL: tiered store + WAL — acknowledged records survive
// a restart even when some were frozen cold before the checkpoint.
func TestDaemonTieredWAL(t *testing.T) {
	coldDir := filepath.Join(t.TempDir(), "cold")
	walDir := filepath.Join(t.TempDir(), "wal")
	cfg := config{s: 3, storeKind: "tiered", coldDir: coldDir, budget: "4K",
		walDir: walDir, ckptEvery: 3}

	addr, shutdown, done := startDaemon(t, cfg)
	client, err := transport.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for p := 1; p <= n; p++ {
		rec, err := record.New(5, record.PeriodID(p), 8192)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 256; i++ {
			rec.Bitmap.Set(uint64(p*4096 + i*7))
		}
		if err := client.Upload(rec); err != nil {
			t.Fatal(err)
		}
	}
	_ = client.Close()
	shutdown()
	if err := <-done; err != nil {
		t.Fatalf("first run exit: %v", err)
	}

	addr2, shutdown2, done2 := startDaemon(t, cfg)
	client2, err := transport.Dial(addr2, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := client2.ListPeriods(5)
	if err != nil || len(ps) != n {
		t.Fatalf("recovered %d periods (%v), want %d", len(ps), err, n)
	}
	_ = client2.Close()
	shutdown2()
	if err := <-done2; err != nil {
		t.Fatalf("restart exit: %v", err)
	}
}

func TestParseFlagsStore(t *testing.T) {
	cfg := parseFlags([]string{"-store", "tiered", "-cold", "/tmp/cold", "-resident-budget", "64M"})
	if cfg.storeKind != "tiered" || cfg.coldDir != "/tmp/cold" || cfg.budget != "64M" {
		t.Errorf("cfg = %+v", cfg)
	}
	if def := parseFlags(nil); def.storeKind != "mem" || def.coldDir != "" || def.budget != "" {
		t.Errorf("defaults = %+v", def)
	}
}
