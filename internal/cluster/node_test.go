package cluster

// In-process cluster tests: N nodes with real WALs and real transport
// servers on loopback, driven deterministically through ShipNow. The
// core property under test is the ISSUE's acceptance bar — estimator
// output from cluster replicas is bit-identical to a single-node store
// holding the same records — plus the failover and join/drain flows.

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ptm/internal/central"
	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

const testS = 3

// testNode bundles one in-process cluster member.
type testNode struct {
	node *Node
	srv  *transport.Server
	addr string
	dir  string
}

// startNode opens a durable store in its own temp dir, wraps it in a
// Node (manual shipping only), and serves it on loopback.
func startNode(t *testing.T, id string) *testNode {
	t.Helper()
	dir := t.TempDir()
	d, err := central.OpenDurable(dir, testS,
		wal.Options{SegmentSize: 1 << 14}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return serveNode(t, id, dir, d)
}

// serveNode wraps a durable store opened in dir in a Node (manual
// shipping only) and serves it on loopback.
func serveNode(t *testing.T, id, dir string, d *central.Durable) *testNode {
	t.Helper()
	n, err := NewNode(d, Config{
		ID:          id,
		RingPath:    filepath.Join(dir, "ring.json"),
		DialTimeout: 2 * time.Second,
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
	tn := &testNode{node: n, srv: srv, addr: ln.Addr().String(), dir: dir}
	t.Cleanup(func() {
		_ = tn.node.Close()
		_ = tn.srv.Close()
		_ = tn.node.Durable.Close()
	})
	return tn
}

// pushRing installs a ring on the given nodes through the extension
// frame path (the same path ptmcluster uses).
func pushRing(t *testing.T, r *Ring, nodes ...*testNode) {
	t.Helper()
	enc, err := EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		_, resp, handled := tn.node.HandleFrame(transport.MsgRingSet, enc)
		if !handled {
			t.Fatalf("node %s did not handle MsgRingSet", tn.node.ID())
		}
		if _, err := splitPayload(resp); err != nil {
			t.Fatalf("node %s rejected ring epoch %d: %v", tn.node.ID(), r.Epoch, err)
		}
	}
}

// ringOf builds a ring over the started nodes, all Up.
func ringOf(epoch uint64, replicas int, nodes ...*testNode) *Ring {
	r := &Ring{Epoch: epoch, Replicas: replicas, VNodes: DefaultVNodes}
	for _, tn := range nodes {
		r.Members = append(r.Members, Member{ID: tn.node.ID(), Addr: tn.addr, State: StateUp})
	}
	r.SortMembers()
	return r
}

// testRecord builds a deterministic record: the bitmap bits are a pure
// function of (loc, period), so the reference store and the cluster see
// byte-identical records.
func testRecord(t *testing.T, loc, period, m int) *record.Record {
	t.Helper()
	rec, err := record.New(vhash.LocationID(loc), record.PeriodID(period), m)
	if err != nil {
		t.Fatal(err)
	}
	seed := uint64(loc)*2654435761 + uint64(period)*40503
	for k := 0; k < 6+loc%4+period%3; k++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		rec.Bitmap.Set(seed % uint64(m))
	}
	return rec
}

// shipAll runs rounds replication rounds on every node.
func shipAll(t *testing.T, rounds int, nodes ...*testNode) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for _, tn := range nodes {
			if err := tn.node.ShipNow(); err != nil {
				t.Fatalf("round %d: node %s: %v", i, tn.node.ID(), err)
			}
		}
	}
}

// leaderOf resolves loc's leader among the nodes.
func leaderOf(t *testing.T, r *Ring, nodes map[string]*testNode, loc int) *testNode {
	t.Helper()
	m, err := r.Leader(vhash.LocationID(loc))
	if err != nil {
		t.Fatalf("leader(%d): %v", loc, err)
	}
	tn, ok := nodes[m.ID]
	if !ok {
		t.Fatalf("leader(%d) = %s, not a live node", loc, m.ID)
	}
	return tn
}

func TestClusterReplicationDifferential(t *testing.T) {
	a, b, c := startNode(t, "a"), startNode(t, "b"), startNode(t, "c")
	nodes := map[string]*testNode{"a": a, "b": b, "c": c}
	r := ringOf(1, 2, a, b, c)
	pushRing(t, r, a, b, c)

	ref, err := central.NewServer(testS)
	if err != nil {
		t.Fatal(err)
	}
	const m = 64
	locs := []int{1, 2, 3, 4, 5, 6}
	periods := []record.PeriodID{1, 2, 3, 4, 5, 6, 7, 8}
	for _, loc := range locs {
		for _, p := range periods {
			if err := ref.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatal(err)
			}
			if err := leaderOf(t, r, nodes, loc).node.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatalf("ingest loc=%d p=%d: %v", loc, p, err)
			}
		}
	}

	// A follower must reject a direct upload with the leader hint.
	for _, loc := range locs {
		lead := leaderOf(t, r, nodes, loc)
		for id, tn := range nodes {
			if id == lead.node.ID() {
				continue
			}
			err := tn.node.Ingest(testRecord(t, loc, 99, m))
			if !IsNotLeader(err) {
				t.Fatalf("follower %s accepted loc %d upload (err=%v)", id, loc, err)
			}
		}
		break // one location suffices
	}

	// Two hops bound convergence; run three rounds for slack.
	shipAll(t, 3, a, b, c)

	for _, loc := range locs {
		set := r.ReplicaSet(vhash.LocationID(loc))
		if len(set) != 2 {
			t.Fatalf("replica set for %d: %v", loc, set)
		}
		for _, mem := range set {
			tn := nodes[mem.ID]
			for _, p := range periods {
				want, err := ref.Volume(vhash.LocationID(loc), p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := tn.node.Volume(vhash.LocationID(loc), p)
				if err != nil {
					t.Fatalf("replica %s volume(%d,%d): %v", mem.ID, loc, p, err)
				}
				if got != want {
					t.Fatalf("replica %s volume(%d,%d) = %v, want %v", mem.ID, loc, p, got, want)
				}
			}
			wantPt, err := ref.PointPersistent(vhash.LocationID(loc), periods)
			if err != nil {
				t.Fatal(err)
			}
			gotPt, err := tn.node.PointPersistent(vhash.LocationID(loc), periods)
			if err != nil {
				t.Fatalf("replica %s point(%d): %v", mem.ID, loc, err)
			}
			if !reflect.DeepEqual(gotPt, wantPt) {
				t.Fatalf("replica %s point(%d) = %+v, want %+v", mem.ID, loc, gotPt, wantPt)
			}
		}
	}

	// Point-to-point on any node holding both locations.
	for _, pair := range [][2]int{{1, 2}, {3, 5}} {
		la, lb := vhash.LocationID(pair[0]), vhash.LocationID(pair[1])
		want, err := ref.PointToPointPersistent(la, lb, periods)
		if err != nil {
			t.Fatal(err)
		}
		for id, tn := range nodes {
			holdsBoth := len(tn.node.Periods(la)) > 0 && len(tn.node.Periods(lb)) > 0
			if !holdsBoth {
				continue
			}
			got, err := tn.node.PointToPointPersistent(la, lb, periods)
			if err != nil {
				t.Fatalf("node %s p2p(%d,%d): %v", id, la, lb, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("node %s p2p(%d,%d) = %+v, want %+v", id, la, lb, got, want)
			}
		}
	}
}

func TestClusterFailoverAndReviveNoAckedLoss(t *testing.T) {
	a, b, c := startNode(t, "a"), startNode(t, "b"), startNode(t, "c")
	nodes := map[string]*testNode{"a": a, "b": b, "c": c}
	all := []*testNode{a, b, c}
	r := ringOf(1, 2, a, b, c)
	pushRing(t, r, all...)

	ref, err := central.NewServer(testS)
	if err != nil {
		t.Fatal(err)
	}
	const m = 64
	ingestBoth := func(r *Ring, loc, p int) {
		t.Helper()
		if err := ref.Ingest(testRecord(t, loc, p, m)); err != nil && !errors.Is(err, central.ErrDuplicate) {
			t.Fatal(err)
		}
		if err := leaderOf(t, r, nodes, loc).node.Ingest(testRecord(t, loc, p, m)); err != nil {
			t.Fatalf("ingest loc=%d p=%d: %v", loc, p, err)
		}
	}
	locs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	for _, loc := range locs {
		for p := 1; p <= 4; p++ {
			ingestBoth(r, loc, p)
		}
	}
	shipAll(t, 3, all...)

	// Pick a victim that leads at least one location.
	var victim *testNode
	var victimLoc int
	for _, loc := range locs {
		lead := leaderOf(t, r, nodes, loc)
		if lead == a {
			victim, victimLoc = lead, loc
			break
		}
	}
	if victim == nil {
		t.Skip("node a leads no test location; hash placement changed")
	}

	// One more acked record on the victim that is NOT shipped before the
	// kill: it must survive via the victim's WAL after revive.
	unshipped := testRecord(t, victimLoc, 77, m)
	if err := ref.Ingest(testRecord(t, victimLoc, 77, m)); err != nil {
		t.Fatal(err)
	}
	if err := victim.node.Ingest(unshipped); err != nil {
		t.Fatal(err)
	}

	// Kill: stop serving and shipping. The durable store stays on disk.
	if err := victim.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := victim.node.Close(); err != nil {
		t.Fatal(err)
	}

	// The partition is leaderless until an explicit failover.
	down := r.Clone()
	down.Epoch = 2
	for i := range down.Members {
		if down.Members[i].ID == victim.node.ID() {
			down.Members[i].State = StateDown
		}
	}
	survivors := []*testNode{b, c}
	pushRing(t, down, survivors...)
	if _, err := down.Leader(vhash.LocationID(victimLoc)); err == nil {
		t.Fatal("down unpromoted leader still resolves")
	}
	if err := b.node.Ingest(testRecord(t, victimLoc, 78, m)); err == nil {
		t.Fatal("leaderless partition accepted an upload")
	}

	// Failover: promote the most-caught-up survivor (by applied
	// watermark for the victim, as ptmcluster does).
	best := survivors[0]
	for _, tn := range survivors[1:] {
		if tn.node.StatusSnapshot().Applied[victim.node.ID()] > best.node.StatusSnapshot().Applied[victim.node.ID()] {
			best = tn
		}
	}
	failed := down.Clone()
	failed.Epoch = 3
	failed.Promoted = map[string]string{victim.node.ID(): best.node.ID()}
	pushRing(t, failed, survivors...)

	// The partition serves again; ingest continues on the new leader.
	for p := 5; p <= 6; p++ {
		ingestBoth(failed, victimLoc, p)
	}
	shipAll(t, 3, survivors...)

	// Revive: restart the victim over the same WAL (kill -9 semantics:
	// reopen and recover), then push a ring returning it to Up.
	d2, err := central.OpenDurable(victim.dir, testS,
		wal.Options{SegmentSize: 1 << 14}, 0)
	if err != nil {
		t.Fatalf("reopening victim WAL: %v", err)
	}
	n2, err := NewNode(d2, Config{
		ID:          victim.node.ID(),
		RingPath:    filepath.Join(victim.dir, "ring.json"),
		DialTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := transport.NewServer(n2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", victim.addr)
	if err != nil {
		t.Fatalf("rebinding %s: %v", victim.addr, err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	revived := &testNode{node: n2, srv: srv2, addr: victim.addr, dir: victim.dir}
	t.Cleanup(func() {
		_ = revived.node.Close()
		_ = revived.srv.Close()
		_ = revived.node.Durable.Close()
	})
	nodes[revived.node.ID()] = revived

	up := failed.Clone()
	up.Epoch = 4
	up.Promoted = nil
	for i := range up.Members {
		if up.Members[i].ID == revived.node.ID() {
			up.Members[i].State = StateUp
		}
	}
	final := []*testNode{revived, b, c}
	pushRing(t, up, final...)
	shipAll(t, 3, final...)

	// Every replica of every location now matches the reference —
	// including period 77, which was acked only on the victim's WAL
	// before the kill.
	periods := func(loc int) []record.PeriodID { return ref.Periods(vhash.LocationID(loc)) }
	for _, loc := range locs {
		for _, mem := range up.ReplicaSet(vhash.LocationID(loc)) {
			tn := nodes[mem.ID]
			wantPt, err := ref.PointPersistent(vhash.LocationID(loc), periods(loc))
			if err != nil {
				t.Fatal(err)
			}
			gotPt, err := tn.node.PointPersistent(vhash.LocationID(loc), periods(loc))
			if err != nil {
				t.Fatalf("replica %s point(%d): %v", mem.ID, loc, err)
			}
			if !reflect.DeepEqual(gotPt, wantPt) {
				t.Fatalf("replica %s point(%d) diverged after failover+revive", mem.ID, loc)
			}
		}
	}
	for _, mem := range up.ReplicaSet(vhash.LocationID(victimLoc)) {
		tn := nodes[mem.ID]
		got, err := tn.node.Volume(vhash.LocationID(victimLoc), 77)
		if err != nil {
			t.Fatalf("replica %s lost the acked-but-unshipped record: %v", mem.ID, err)
		}
		want, err := ref.Volume(vhash.LocationID(victimLoc), 77)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("replica %s volume for revived record = %v, want %v", mem.ID, got, want)
		}
	}
}

func TestClusterJoinDrainPreservesEstimates(t *testing.T) {
	a, b, c := startNode(t, "a"), startNode(t, "b"), startNode(t, "c")
	nodes := map[string]*testNode{"a": a, "b": b, "c": c}
	r := ringOf(1, 2, a, b, c)
	pushRing(t, r, a, b, c)

	ref, err := central.NewServer(testS)
	if err != nil {
		t.Fatal(err)
	}
	const m = 64
	locs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	periods := []record.PeriodID{1, 2, 3, 4}
	for _, loc := range locs {
		for _, p := range periods {
			if err := ref.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatal(err)
			}
			if err := leaderOf(t, r, nodes, loc).node.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatal(err)
			}
		}
	}
	shipAll(t, 3, a, b, c)

	// Join d: it owns positions immediately but leads nothing until Up.
	d := startNode(t, "d")
	nodes["d"] = d
	joined := r.Clone()
	joined.Epoch = 2
	joined.Members = append(joined.Members, Member{ID: "d", Addr: d.addr, State: StateJoining})
	joined.SortMembers()
	pushRing(t, joined, a, b, c, d)
	shipAll(t, 3, a, b, c, d)

	// Promote d, then drain a. Draining a owns nothing; its shipper
	// pushes its records up to the new leaders.
	up := joined.Clone()
	up.Epoch = 3
	for i := range up.Members {
		if up.Members[i].ID == "d" {
			up.Members[i].State = StateUp
		}
	}
	pushRing(t, up, a, b, c, d)
	drained := up.Clone()
	drained.Epoch = 4
	for i := range drained.Members {
		if drained.Members[i].ID == "a" {
			drained.Members[i].State = StateDraining
		}
	}
	pushRing(t, drained, a, b, c, d)
	shipAll(t, 3, a, b, c, d)

	for _, loc := range locs {
		set := drained.ReplicaSet(vhash.LocationID(loc))
		if len(set) != 2 {
			t.Fatalf("replica set for %d after drain: %v", loc, set)
		}
		for _, mem := range set {
			if mem.ID == "a" {
				t.Fatalf("draining member still owns loc %d", loc)
			}
			tn := nodes[mem.ID]
			wantPt, err := ref.PointPersistent(vhash.LocationID(loc), periods)
			if err != nil {
				t.Fatal(err)
			}
			gotPt, err := tn.node.PointPersistent(vhash.LocationID(loc), periods)
			if err != nil {
				t.Fatalf("replica %s point(%d) after join+drain: %v", mem.ID, loc, err)
			}
			if !reflect.DeepEqual(gotPt, wantPt) {
				t.Fatalf("replica %s point(%d) diverged after join+drain", mem.ID, loc)
			}
		}
	}
}

func TestRingSetPersistenceAndEpochGate(t *testing.T) {
	a := startNode(t, "a")
	r := ringOf(5, 1, a)
	pushRing(t, r, a)
	if _, err := os.Stat(filepath.Join(a.dir, "ring.json")); err != nil {
		t.Fatalf("accepted ring not persisted: %v", err)
	}

	// Same epoch: idempotent success. Older: rejected.
	pushRing(t, r, a)
	stale := r.Clone()
	stale.Epoch = 4
	enc, err := EncodeRing(stale)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, _ := a.node.HandleFrame(transport.MsgRingSet, enc)
	if _, err := splitPayload(resp); err == nil {
		t.Fatal("stale ring push accepted")
	}

	// A fresh Node over the same ring path restores the ring.
	if err := a.node.Close(); err != nil {
		t.Fatal(err)
	}
	n2, err := NewNode(a.node.Durable, Config{ID: "a", RingPath: filepath.Join(a.dir, "ring.json")})
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	got := n2.Ring()
	if got == nil || got.Epoch != 5 {
		t.Fatalf("restarted node ring = %+v, want epoch 5", got)
	}
}

// TestRingSetSameEpochDifferentContents pins the same-epoch rule: a
// re-push of the ring in effect (members in any order) is an idempotent
// success, but a different ring at that epoch is refused by name and
// the node keeps the ring it had.
func TestRingSetSameEpochDifferentContents(t *testing.T) {
	a := startNode(t, "a")
	b := startNode(t, "b")
	r := ringOf(7, 1, a, b)
	pushRing(t, r, a)

	reordered := r.Clone()
	reordered.Members[0], reordered.Members[1] = reordered.Members[1], reordered.Members[0]
	pushRing(t, reordered, a)

	forked := ringOf(7, 1, a)
	enc, err := EncodeRing(forked)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, _ := a.node.HandleFrame(transport.MsgRingSet, enc)
	_, err = splitPayload(resp)
	if err == nil {
		t.Fatal("a different ring at the epoch in effect was accepted")
	}
	if !strings.Contains(err.Error(), "epoch 7") {
		t.Errorf("refusal %q does not name the epoch", err)
	}
	if got := a.node.Ring(); got == nil || len(got.Members) != 2 {
		t.Fatalf("node ring after the refused push = %+v, want the two-member ring", got)
	}
}

func TestReplBatchDuplicateAndAppliedTracking(t *testing.T) {
	a := startNode(t, "a")
	rec := testRecord(t, 1, 1, 64)
	blob, err := rec.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	batch, err := transport.EncodeRecordBlobs([][]byte{blob})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeReplBatch(replHeader{From: "b", Epoch: 1, Through: 9}, batch)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, handled := a.node.HandleFrame(transport.MsgReplBatch, payload)
	if !handled {
		t.Fatal("MsgReplBatch not handled")
	}
	ack, err := decodeReplAck(resp)
	if err != nil || !ack.OK || ack.Applied != 1 || ack.Dups != 0 {
		t.Fatalf("first apply ack = %+v, %v", ack, err)
	}
	// Redelivery: pure dup, still OK, watermark advances monotonically.
	payload2, err := encodeReplBatch(replHeader{From: "b", Epoch: 1, Through: 7}, batch)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, _ = a.node.HandleFrame(transport.MsgReplBatch, payload2)
	ack, err = decodeReplAck(resp)
	if err != nil || !ack.OK || ack.Applied != 0 || ack.Dups != 1 {
		t.Fatalf("redelivery ack = %+v, %v", ack, err)
	}
	st := a.node.StatusSnapshot()
	if st.Applied["b"] != 9 {
		t.Fatalf("applied watermark = %d, want 9 (monotonic)", st.Applied["b"])
	}

	// Record fetch round-trips the stored record.
	_, resp, _ = a.node.HandleFrame(transport.MsgFetchRecords, encodeFetch(1, []record.PeriodID{rec.Period}))
	body, err := splitPayload(resp)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := transport.DecodeRecordBatch(body)
	if err != nil || len(recs) != 1 {
		t.Fatalf("fetch returned %d records, %v", len(recs), err)
	}
	if fmt.Sprint(recs[0].Location, recs[0].Period) != fmt.Sprint(rec.Location, rec.Period) {
		t.Fatalf("fetched %v/%v, want %v/%v", recs[0].Location, recs[0].Period, rec.Location, rec.Period)
	}
}

// replFrame frames records as a replication batch from peer "b".
func replFrame(t *testing.T, recs []*record.Record) []byte {
	t.Helper()
	batch, err := transport.EncodeRecordBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := encodeReplBatch(replHeader{From: "b", Epoch: 1, Through: 1}, batch)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestReplBatchOneSyncPerBatch: a follower commits a shipped batch of 8
// with one WAL sync, and a full redelivery of it acks OK without one.
func TestReplBatchOneSyncPerBatch(t *testing.T) {
	a := startNode(t, "a")
	recs := make([]*record.Record, 8)
	for i := range recs {
		recs[i] = testRecord(t, 3, i+1, 64)
	}
	payload := replFrame(t, recs)
	for _, tc := range []struct {
		name                 string
		applied, dups, syncs int
	}{
		{"first delivery", 8, 0, 1},
		{"redelivery", 0, 8, 0},
	} {
		before := a.node.LogStats()
		_, resp, _ := a.node.HandleFrame(transport.MsgReplBatch, payload)
		ack, err := decodeReplAck(resp)
		if err != nil || !ack.OK || ack.Applied != tc.applied || ack.Dups != tc.dups {
			t.Fatalf("%s: ack = %+v, %v", tc.name, ack, err)
		}
		if got := a.node.LogStats().Syncs - before.Syncs; got != int64(tc.syncs) {
			t.Fatalf("%s: cost %d syncs, want %d", tc.name, got, tc.syncs)
		}
	}
}

// TestLeaderGateRejectingLastRecordCommitsBatch: when the leader gate
// rejects a batch's last record, the records before it are still
// committed with the batch's one sync, and the ack reports none
// accepted (the closing record failed).
func TestLeaderGateRejectingLastRecordCommitsBatch(t *testing.T) {
	a, b := startNode(t, "a"), startNode(t, "b")
	r := ringOf(1, 1, a, b)
	pushRing(t, r, a, b)
	nodes := map[string]*testNode{"a": a, "b": b}
	own, foreign := -1, -1
	for loc := 1; own < 0 || foreign < 0; loc++ {
		if leaderOf(t, r, nodes, loc) == a {
			own = loc
		} else {
			foreign = loc
		}
	}
	recs := make([]*record.Record, 8)
	for i := 0; i < 7; i++ {
		recs[i] = testRecord(t, own, i+1, 64)
	}
	recs[7] = testRecord(t, foreign, 1, 64)
	c, err := transport.Dial(a.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := a.node.LogStats()
	accepted, err := c.UploadBatch(recs)
	if !IsNotLeader(err) || accepted != 0 {
		t.Fatalf("UploadBatch = %d, %v; want 0 accepted and a not-leader error", accepted, err)
	}
	after := a.node.LogStats()
	if got := after.Appends - before.Appends; got != 7 {
		t.Fatalf("batch logged %d records, want 7", got)
	}
	if got := after.Syncs - before.Syncs; got != 1 {
		t.Fatalf("batch cost %d syncs, want 1: the gate must commit the records before it", got)
	}
}

// TestConcurrentShipRoundsShipOnce runs two replication rounds on one
// node at once, as the background shipper and an explicit ShipNow do:
// the rounds take turns, so the follower gets one first-contact full
// sync and every record once, and the round that ends last leaves the
// newest watermark.
func TestConcurrentShipRoundsShipOnce(t *testing.T) {
	a, b := startNode(t, "a"), startNode(t, "b")
	r := ringOf(1, 2, a, b)
	pushRing(t, r, a, b)
	nodes := map[string]*testNode{"a": a, "b": b}
	led := 0
	for loc := 1; loc <= 16; loc++ {
		if leaderOf(t, r, nodes, loc) != a {
			continue
		}
		for p := 1; p <= 8; p++ {
			if err := a.node.Ingest(testRecord(t, loc, p, 1024)); err != nil {
				t.Fatal(err)
			}
			led++
		}
	}
	if led == 0 {
		t.Fatal("a leads none of the locations")
	}
	start := make(chan struct{})
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			<-start
			errs <- a.node.ShipNow()
		}()
	}
	close(start)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	peer := a.node.StatusSnapshot().Peers["b"]
	if peer.FullSyncs != 1 || peer.Records != int64(led) {
		t.Errorf("b got %d full syncs and %d records, want 1 and %d", peer.FullSyncs, peer.Records, led)
	}
	if got := b.node.LogStats().Appends; got != int64(led) {
		t.Errorf("b logged %d records, want %d", got, led)
	}
	if _, active := a.node.Log().Segments(); peer.Shipped+1 != active {
		t.Errorf("watermark %d, want the last sealed segment %d", peer.Shipped, active-1)
	}
}

// ingestGate is a store that parks the ingest of one location until
// released, holding that ingest between its WAL append and its apply.
// loc is set before any record of it is ingested.
type ingestGate struct {
	store.Store
	loc     vhash.LocationID
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (g *ingestGate) Ingest(rec *record.Record) (int, error) {
	if rec.Location == g.loc {
		g.once.Do(func() { close(g.entered) })
		<-g.release
	}
	return g.Store.Ingest(rec)
}

// TestFullResyncShipsInFlightIngest: a record appended to the leader's
// log before a first-contact round seals it, but not yet in the store
// when the round's full resync reads it, must still reach the follower.
// The round moves the watermark past the record's segment, so a resync
// that does not wait for the ingest to land misses the record for good:
// later incremental rounds start after it.
func TestFullResyncShipsInFlightIngest(t *testing.T) {
	mem, err := store.NewMem(0)
	if err != nil {
		t.Fatal(err)
	}
	gate := &ingestGate{Store: mem, entered: make(chan struct{}), release: make(chan struct{})}
	srv, err := central.NewServerWithStore(testS, gate)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := central.OpenDurableServer(dir, srv, wal.Options{SegmentSize: 1 << 14}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := serveNode(t, "a", dir, d), startNode(t, "b")
	r := ringOf(1, 2, a, b)
	pushRing(t, r, a, b)
	nodes := map[string]*testNode{"a": a, "b": b}

	var led []int
	for loc := 1; loc <= 32 && len(led) < 4; loc++ {
		if leaderOf(t, r, nodes, loc) == a {
			led = append(led, loc)
		}
	}
	if len(led) < 2 {
		t.Fatalf("a leads %d of the locations, want 2", len(led))
	}
	want := 0
	for _, loc := range led[1:] {
		for p := 1; p <= 3; p++ {
			if err := a.node.Ingest(testRecord(t, loc, p, 1024)); err != nil {
				t.Fatal(err)
			}
			want++
		}
	}
	gate.loc = vhash.LocationID(led[0])
	parked := testRecord(t, led[0], 1, 1024)
	ingested := make(chan error, 1)
	go func() { ingested <- a.node.Ingest(parked) }()
	<-gate.entered // the record is in a's log, not yet in its store
	want++

	shipped := make(chan error, 1)
	go func() { shipped <- a.node.ShipNow() }()
	select {
	case err := <-shipped:
		// The round finished without the parked record.
		close(gate.release)
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(200 * time.Millisecond):
		// The round waits for the parked ingest, as it must.
		close(gate.release)
		if err := <-shipped; err != nil {
			t.Fatal(err)
		}
	}
	if err := <-ingested; err != nil {
		t.Fatal(err)
	}
	if err := a.node.ShipNow(); err != nil {
		t.Fatal(err)
	}
	if got := b.node.Stats().Records; got != want {
		t.Fatalf("follower holds %d of %d records after the full resync and one more round", got, want)
	}
	if _, err := b.node.Volume(vhash.LocationID(led[0]), 1); err != nil {
		t.Fatalf("follower lacks the record that was in flight during the resync: %v", err)
	}
}

// moved returns a copy of r at epoch with member id in state st; a
// non-empty addr also moves the member there.
func moved(r *Ring, epoch uint64, id string, st State, addr string) *Ring {
	c := r.Clone()
	c.Epoch = epoch
	for i := range c.Members {
		if c.Members[i].ID == id {
			c.Members[i].State = st
			if addr != "" {
				c.Members[i].Addr = addr
			}
		}
	}
	return c
}

// TestShipperFollowsRejoinAtNewAddress: a member that leaves and
// rejoins at a new address (`ptmcluster join -addr` on a Left
// tombstone, a host move) is shipped to at the new address, even when
// no ship round runs while it is Left.
func TestShipperFollowsRejoinAtNewAddress(t *testing.T) {
	a, b := startNode(t, "a"), startNode(t, "b")
	r := ringOf(1, 2, a, b)
	pushRing(t, r, a, b)
	loc := 0
	for l := 1; l < 256 && loc == 0; l++ {
		if lead, err := r.Leader(vhash.LocationID(l)); err == nil && lead.ID == "a" {
			loc = l
		}
	}
	if loc == 0 {
		t.Fatal("a leads nothing in 255 locations")
	}
	const m = 64
	if err := a.node.Ingest(testRecord(t, loc, 1, m)); err != nil {
		t.Fatal(err)
	}
	shipAll(t, 1, a) // a now holds a connection to b

	// b's host goes away; b comes back empty at a new address.
	if err := b.srv.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := startNode(t, "b")
	pushRing(t, moved(r, 2, "b", StateDraining, ""), a)
	pushRing(t, moved(r, 3, "b", StateLeft, ""), a)
	rejoined := moved(r, 4, "b", StateJoining, b2.addr)
	pushRing(t, rejoined, a, b2)

	if err := a.node.ShipNow(); err != nil {
		t.Fatalf("ship after b moved: %v", err)
	}
	if got := b2.node.Periods(vhash.LocationID(loc)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("rejoined b holds periods %v of loc %d, want [1]", got, loc)
	}
}
