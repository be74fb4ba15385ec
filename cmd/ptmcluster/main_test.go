package main

import (
	"bytes"
	"net"
	"path/filepath"
	"strings"
	"sync"
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
	n, addr, _ := serveNode(t, id, t.TempDir(), "127.0.0.1:0")
	return n, addr
}

// serveNode is startNode over a given data dir and listen address, so a
// stopped member can come back with its store and ring on its old
// address. The returned stop closes the node, its server (and listener)
// and its store; t.Cleanup calls it too, and a second call does nothing.
func serveNode(t *testing.T, id, dir, listen string) (*cluster.Node, string, func()) {
	t.Helper()
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
		_ = d.Close()
		t.Fatal(err)
	}
	srv, err := transport.NewServer(n, nil)
	if err != nil {
		_ = n.Close()
		_ = d.Close()
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", listen)
	if err != nil {
		_ = n.Close()
		_ = d.Close()
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			_ = n.Close()
			_ = srv.Close()
			_ = d.Close()
		})
	}
	t.Cleanup(stop)
	return n, ln.Addr().String(), stop
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

// TestRunFailoverReviveDrainRemove drives three in-process nodes through
// the outage and retirement verbs: a leader's server stops, failover
// hands its partitions to a survivor, the node comes back on its old
// address and is revived, and another member is drained — wait shows its
// records re-shipped — and removed.
func TestRunFailoverReviveDrainRemove(t *testing.T) {
	dirs := map[string]string{"a": t.TempDir(), "b": t.TempDir(), "c": t.TempDir()}
	nodes := make(map[string]*cluster.Node)
	addrs := make(map[string]string)
	stops := make(map[string]func())
	for _, id := range []string{"a", "b", "c"} {
		nodes[id], addrs[id], stops[id] = serveNode(t, id, dirs[id], "127.0.0.1:0")
	}
	wantLines(t, runOK(t, "init", "-replicas", "2",
		"-node", "a="+addrs["a"], "-node", "b="+addrs["b"], "-node", "c="+addrs["c"]),
		"ring epoch 1 pushed to 3/3 members")

	// Every record goes to its partition's leader, as a router sends it.
	ring := nodes["a"].Ring()
	ingest := func(r *cluster.Ring, loc vhash.LocationID, p record.PeriodID) {
		t.Helper()
		leader, err := r.Leader(loc)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := record.New(loc, p, 1024)
		if err != nil {
			t.Fatal(err)
		}
		rec.Bitmap.Set(uint64(loc)*31 + uint64(p))
		if err := nodes[leader.ID].Ingest(rec); err != nil {
			t.Fatalf("ingest loc %d period %d at %s: %v", loc, p, leader.ID, err)
		}
	}
	const locs, periods = 12, 3
	for loc := vhash.LocationID(1); loc <= locs; loc++ {
		for p := record.PeriodID(1); p <= periods; p++ {
			ingest(ring, loc, p)
		}
	}
	wantLines(t, runOK(t, "wait", "-seed", addrs["a"], "-interval", "10ms", "-timeout", "20s"),
		"converged")

	// The victim leads location 1; the drained member and the seed are
	// the other two.
	leader, err := ring.Leader(1)
	if err != nil {
		t.Fatal(err)
	}
	victim := leader.ID
	var others []string
	for _, id := range []string{"a", "b", "c"} {
		if id != victim {
			others = append(others, id)
		}
	}
	seed, drained := others[0], others[1]
	var victimLocs []vhash.LocationID
	for loc := vhash.LocationID(1); loc <= locs; loc++ {
		if l, err := ring.Leader(loc); err == nil && l.ID == victim {
			victimLocs = append(victimLocs, loc)
		}
	}

	stops[victim]()
	wantLines(t, runOK(t, "failover", "-seed", addrs[seed], "-down", victim),
		"failover "+victim+": promoting ", "ring epoch 2 pushed to 2/3 members")
	ring = nodes[seed].Ring()
	for _, loc := range victimLocs {
		l, err := ring.Leader(loc)
		if err != nil {
			t.Fatalf("location %d after failover: %v", loc, err)
		}
		if l.ID == victim || l.State != cluster.StateUp {
			t.Fatalf("location %d led by %s (%s) after failover of %s", loc, l.ID, l.State, victim)
		}
		// The survivor takes the partition's uploads.
		ingest(ring, loc, periods+1)
	}

	nodes[victim], _, stops[victim] = serveNode(t, victim, dirs[victim], addrs[victim])
	wantLines(t, runOK(t, "revive", "-seed", addrs[seed], "-id", victim),
		"revive "+victim+": ring epoch 3 pushed to 3/3 members")
	wantLines(t, runOK(t, "wait", "-seed", addrs[seed], "-interval", "10ms", "-timeout", "20s"),
		"converged")
	if l, err := nodes[victim].Ring().Leader(1); err != nil || l.ID != victim {
		t.Errorf("location 1 after revive: leader %v, %v; want %s", l.ID, err, victim)
	}

	wantLines(t, runOK(t, "drain", "-seed", addrs[seed], "-id", drained),
		"drain "+drained+": ring epoch 4 pushed to 3/3 members")
	wantLines(t, runOK(t, "wait", "-seed", addrs[seed], "-interval", "10ms", "-timeout", "20s"),
		"converged")
	want := locs*periods + len(victimLocs)
	for _, id := range []string{seed, victim} {
		if got := nodes[id].Stats().Records; got != want {
			t.Errorf("%s holds %d records after draining %s, want %d", id, got, drained, want)
		}
	}
	wantLines(t, runOK(t, "remove", "-seed", addrs[seed], "-id", drained),
		"remove "+drained+": ring epoch 5 pushed to 2/2 members")
	wantLines(t, runOK(t, "status", "-seed", addrs[seed]), "ring epoch 5: 3 members, R=2")
	if m, ok := nodes[seed].Ring().Member(drained); !ok || m.State != cluster.StateLeft {
		t.Errorf("%s after remove: %+v, want left", drained, m)
	}
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
