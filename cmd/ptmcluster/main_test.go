package main

import (
	"bytes"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ptm/internal/central"
	"ptm/internal/cluster"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

// startNode serves one in-process cluster member on loopback: a durable
// store in its own temp dir behind a Node whose shipper runs every few
// milliseconds, so replication needs no manual rounds.
func startNode(t *testing.T, id string) (*cluster.Node, string) {
	t.Helper()
	dir := t.TempDir()
	d, err := central.OpenDurable(dir, 3, wal.Options{SegmentSize: 1 << 14}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cluster.NewNode(d, cluster.Config{
		ID:           id,
		RingPath:     filepath.Join(dir, "ring.json"),
		ShipInterval: 10 * time.Millisecond,
		DialTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := transport.NewServer(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = n.Close()
		_ = srv.Close()
		_ = d.Close()
	})
	return n, ln.Addr().String()
}

// runOK runs one ptmcluster command line and returns its output.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("ptmcluster %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// wantLines fails unless out contains every fragment.
func wantLines(t *testing.T, out string, fragments ...string) {
	t.Helper()
	for _, f := range fragments {
		if !strings.Contains(out, f) {
			t.Errorf("output lacks %q:\n%s", f, out)
		}
	}
}

// TestRunLifecycle drives two in-process nodes through the verbs a
// deployment script uses: a one-node ring takes records, a second node
// joins, is promoted, and wait returns once it holds every record.
func TestRunLifecycle(t *testing.T) {
	a, addrA := startNode(t, "a")
	b, addrB := startNode(t, "b")

	wantLines(t, runOK(t, "init", "-replicas", "2", "-node", "a="+addrA),
		"ring epoch 1 pushed to 1/1 members")
	const records = 12
	for loc := 1; loc <= records/3; loc++ {
		for p := 1; p <= 3; p++ {
			rec, err := record.New(vhash.LocationID(loc), record.PeriodID(p), 1024)
			if err != nil {
				t.Fatal(err)
			}
			rec.Bitmap.Set(uint64(loc*31 + p))
			if err := a.Ingest(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	ring, err := cluster.DecodeRing([]byte(runOK(t, "ring", "-seed", addrA)))
	if err != nil {
		t.Fatal(err)
	}
	if ring.Epoch != 1 || len(ring.Members) != 1 || ring.Replicas != 2 {
		t.Errorf("ring = epoch %d, %d members, R=%d", ring.Epoch, len(ring.Members), ring.Replicas)
	}
	wantLines(t, runOK(t, "status", "-seed", addrA),
		"ring epoch 1: 1 members, R=2",
		"a        "+addrA, "epoch=1 locs=4")
	wantLines(t, runOK(t, "locate", "-seed", addrA, "-loc", "2"),
		"location 2: replicas [a(up)]", "location 2: leader a@"+addrA)

	wantLines(t, runOK(t, "join", "-seed", addrA, "-id", "b", "-addr", addrB),
		"join b: ring epoch 2 pushed to 2/2 members")
	wantLines(t, runOK(t, "promote", "-seed", addrA, "-id", "b"),
		"promote b: ring epoch 3 pushed to 2/2 members")
	wantLines(t, runOK(t, "wait", "-seed", addrA, "-interval", "10ms", "-timeout", "20s"),
		"converged: every owning replica reports an identical census")
	if got := b.Stats().Records; got != records {
		t.Errorf("b holds %d records after wait, want %d", got, records)
	}
	if r := b.Ring(); r == nil || r.Epoch != 3 {
		t.Errorf("b's ring = %+v, want epoch 3", r)
	}
	wantLines(t, runOK(t, "locate", "-seed", addrB, "-loc", "2"), "b(up)", "a(up)")
}

// TestRunUsageErrors: a command line run cannot act on is refused
// before any dial.
func TestRunUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{nil, "usage: ptmcluster"},
		{[]string{"rebalance"}, "usage: ptmcluster"},
		{[]string{"init", "-replicas", "2"}, "init needs at least one -node"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
