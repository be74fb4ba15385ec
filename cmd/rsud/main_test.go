package main

import (
	"bytes"
	"math"
	"net"
	"strings"
	"testing"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/transport"
)

func TestRSUDaemonEndToEnd(t *testing.T) {
	store, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	var buf bytes.Buffer
	err = run([]string{
		"-central", ln.Addr().String(),
		"-loc", "6",
		"-periods", "3",
		"-fleet", "150",
		"-transients", "600",
		"-loss", "0.3",
		"-beacons", "15",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "uploaded 3 periods") {
		t.Errorf("output: %s", buf.String())
	}
	// Records arrived and yield a sensible persistent estimate.
	got, err := store.PointPersistent(6, []record.PeriodID{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(got.Estimate-150) / 150; re > 0.35 {
		t.Errorf("persistent estimate %v vs fleet 150 (rel err %.3f)", got.Estimate, re)
	}
}

// TestRSUDaemonSpoolAcrossOutage: with -spool, a run against a dead
// central server keeps its records on disk, and a later run (central
// back up) delivers them before its own periods.
func TestRSUDaemonSpoolAcrossOutage(t *testing.T) {
	spoolDir := t.TempDir()

	// Phase 1: nothing listening. The run must survive the outage,
	// spool every period, and report the failed final drain.
	var buf bytes.Buffer
	err := run([]string{
		"-central", "127.0.0.1:1",
		"-loc", "3",
		"-periods", "2",
		"-fleet", "40",
		"-transients", "100",
		"-spool", spoolDir,
		"-drain-attempts", "1",
		"-drain-base", "1ms",
	}, &buf)
	if err == nil || !strings.Contains(err.Error(), "draining spool") {
		t.Fatalf("outage run err = %v, want a drain failure", err)
	}

	// Phase 2: central is up. A fresh run on the same spool dir drains
	// the outage's records at startup, then uploads its own.
	store, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	buf.Reset()
	err = run([]string{
		"-central", ln.Addr().String(),
		"-loc", "4",
		"-periods", "1",
		"-fleet", "40",
		"-transients", "100",
		"-spool", spoolDir,
		"-drain-attempts", "2",
		"-drain-base", "1ms",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Periods(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("spooled periods at loc 3 = %v, want [1 2]", got)
	}
	if got := store.Periods(4); len(got) != 1 {
		t.Fatalf("live periods at loc 4 = %v, want [1]", got)
	}
}

func TestRSUDaemonErrors(t *testing.T) {
	var buf bytes.Buffer
	// No server listening.
	if err := run([]string{"-central", "127.0.0.1:1", "-periods", "1", "-fleet", "1", "-transients", "1"}, &buf); err == nil {
		t.Error("dial failure not surfaced")
	}
	if err := run([]string{"-bogus"}, &buf); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-f", "0"}, &buf); err == nil {
		t.Error("f=0 accepted")
	}
}

// TestRSUDaemonDuplicateCountsAsDelivered: a period the server already
// holds, as after a retried upload whose first ack was lost, is
// delivered, not a failed run.
func TestRSUDaemonDuplicateCountsAsDelivered(t *testing.T) {
	store, err := central.NewServer(3)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	args := []string{"-central", ln.Addr().String(), "-loc", "5", "-periods", "2", "-fleet", "20", "-transients", "50"}
	for i := 1; i <= 2; i++ {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if got := store.Periods(5); len(got) != 2 {
		t.Fatalf("periods at loc 5 = %v, want [1 2]", got)
	}
}
