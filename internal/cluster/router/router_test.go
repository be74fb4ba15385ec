package router

// End-to-end router tests over real loopback nodes: upload routing,
// scatter-gather queries, cross-partition point-to-point bit-identity
// against a single-node reference, and retry behavior across leadership
// changes and failover.

import (
	"net"
	"path/filepath"
	"testing"
	"time"

	"ptm/internal/central"
	"ptm/internal/cluster"
	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

const testS = 3

type testNode struct {
	node *cluster.Node
	srv  *transport.Server
	addr string
}

func startNode(t testing.TB, id string) *testNode {
	t.Helper()
	dir := t.TempDir()
	d, err := central.OpenDurable(dir, testS,
		wal.Options{SegmentSize: 1 << 14}, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := cluster.NewNode(d, cluster.Config{
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
	tn := &testNode{node: n, srv: srv, addr: ln.Addr().String()}
	t.Cleanup(func() {
		_ = tn.node.Close()
		_ = tn.srv.Close()
		_ = tn.node.Durable.Close()
	})
	return tn
}

// pushRingWire pushes a ring over the wire, as ptmcluster does.
func pushRingWire(t testing.TB, r *cluster.Ring, nodes ...*testNode) {
	t.Helper()
	enc, err := cluster.EncodeRing(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range nodes {
		c, err := transport.Dial(tn.addr, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := c.Call(transport.MsgRingSet, enc, transport.MsgRing)
		if err == nil {
			_, err = cluster.DecodeResponse(resp)
		}
		if cerr := c.Close(); cerr != nil {
			t.Fatal(cerr)
		}
		if err != nil {
			t.Fatalf("pushing ring epoch %d to %s: %v", r.Epoch, tn.node.ID(), err)
		}
	}
}

func ringOf(epoch uint64, replicas int, nodes ...*testNode) *cluster.Ring {
	r := &cluster.Ring{Epoch: epoch, Replicas: replicas, VNodes: cluster.DefaultVNodes}
	for _, tn := range nodes {
		r.Members = append(r.Members, cluster.Member{ID: tn.node.ID(), Addr: tn.addr, State: cluster.StateUp})
	}
	r.SortMembers()
	return r
}

func testRecord(t testing.TB, loc, period, m int) *record.Record {
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

func shipAll(t testing.TB, rounds int, nodes ...*testNode) {
	t.Helper()
	for i := 0; i < rounds; i++ {
		for _, tn := range nodes {
			if err := tn.node.ShipNow(); err != nil {
				t.Fatalf("round %d: node %s: %v", i, tn.node.ID(), err)
			}
		}
	}
}

// clusterOf starts n nodes with an all-Up R=2 ring and a router dialed
// at the first node only (seed discovery finds the rest).
func clusterOf(t testing.TB, n int) ([]*testNode, *Router, *central.Server) {
	t.Helper()
	var nodes []*testNode
	for i := 0; i < n; i++ {
		nodes = append(nodes, startNode(t, string(rune('a'+i))))
	}
	pushRingWire(t, ringOf(1, 2, nodes...), nodes...)
	rt, err := Dial([]string{nodes[0].addr}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	ref, err := central.NewServer(testS)
	if err != nil {
		t.Fatal(err)
	}
	return nodes, rt, ref
}

func TestRouterUploadAndQueryDifferential(t *testing.T) {
	nodes, rt, ref := clusterOf(t, 3)
	const m = 64
	locs := []int{1, 2, 3, 4, 5, 6}
	periods := []record.PeriodID{1, 2, 3, 4, 5}

	var batch []*record.Record
	for _, loc := range locs {
		for _, p := range periods {
			if err := ref.Ingest(testRecord(t, loc, int(p), m)); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, testRecord(t, loc, int(p), m))
		}
	}
	n, err := rt.UploadBatch(batch)
	if err != nil {
		t.Fatalf("UploadBatch: %v", err)
	}
	if n != len(batch) {
		t.Fatalf("UploadBatch acked %d/%d", n, len(batch))
	}
	shipAll(t, 3, nodes...)

	gotLocs, err := rt.ListLocations()
	if err != nil {
		t.Fatal(err)
	}
	if len(gotLocs) != len(locs) {
		t.Fatalf("ListLocations = %v, want %d locations", gotLocs, len(locs))
	}
	for _, loc := range locs {
		ps, err := rt.ListPeriods(vhash.LocationID(loc))
		if err != nil || len(ps) != len(periods) {
			t.Fatalf("ListPeriods(%d) = %v, %v", loc, ps, err)
		}
		for _, p := range periods {
			want, err := ref.Volume(vhash.LocationID(loc), p)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rt.QueryVolume(vhash.LocationID(loc), p)
			if err != nil {
				t.Fatalf("QueryVolume(%d,%d): %v", loc, p, err)
			}
			if got != want {
				t.Fatalf("QueryVolume(%d,%d) = %v, want %v", loc, p, got, want)
			}
		}
		wantPt, err := ref.PointPersistent(vhash.LocationID(loc), periods)
		if err != nil {
			t.Fatal(err)
		}
		gotPt, err := rt.QueryPointPersistent(vhash.LocationID(loc), periods)
		if err != nil {
			t.Fatalf("QueryPointPersistent(%d): %v", loc, err)
		}
		if gotPt != wantPt.Estimate {
			t.Fatalf("QueryPointPersistent(%d) = %v, want %v", loc, gotPt, wantPt.Estimate)
		}
	}

	// A duplicate re-upload is acked (the records are durable).
	n, err = rt.UploadBatch(batch[:4])
	if err != nil || n != 4 {
		t.Fatalf("duplicate re-upload = %d, %v; want 4 acked", n, err)
	}
}

// TestRouterP2PBitIdentity: every point-to-point answer, colocated or
// joined by the router from fetched records, has the bits of a single
// node holding the same records. Each location stores ten times the
// window's periods, the windows do not end at the newest period, and
// one location's records are larger than the rest, so a fetch that
// answered other periods or sizes than the ones asked for would show.
func TestRouterP2PBitIdentity(t *testing.T) {
	nodes, rt, ref := clusterOf(t, 3)
	locs := []int{1, 2, 3, 4, 5, 6, 7, 8}
	const stored = 40
	windows := [][]record.PeriodID{{1, 2, 3, 4}, {18, 19, 20, 21}, {3, 11, 29, 37}}
	sizeOf := func(loc int) int {
		if loc == 5 {
			return 256
		}
		return 64
	}
	var batch []*record.Record
	for _, loc := range locs {
		for p := 1; p <= stored; p++ {
			if err := ref.Ingest(testRecord(t, loc, p, sizeOf(loc))); err != nil {
				t.Fatal(err)
			}
			batch = append(batch, testRecord(t, loc, p, sizeOf(loc)))
		}
	}
	if n, err := rt.UploadBatch(batch); err != nil || n != len(batch) {
		t.Fatalf("UploadBatch = %d/%d, %v", n, len(batch), err)
	}
	shipAll(t, 3, nodes...)

	ring := rt.Ring()
	sameLeader, crossLeader := 0, 0
	for i := 0; i < len(locs); i++ {
		for j := i + 1; j < len(locs); j++ {
			la, lb := vhash.LocationID(locs[i]), vhash.LocationID(locs[j])
			leadA, err := ring.Leader(la)
			if err != nil {
				t.Fatal(err)
			}
			leadB, err := ring.Leader(lb)
			if err != nil {
				t.Fatal(err)
			}
			if leadA.ID == leadB.ID {
				sameLeader++
			} else {
				crossLeader++
			}
			for _, periods := range windows {
				want, err := ref.PointToPointPersistent(la, lb, periods)
				if err != nil {
					t.Fatal(err)
				}
				got, err := rt.QueryPointToPointPersistent(la, lb, periods)
				if err != nil {
					t.Fatalf("p2p(%d,%d,%v): %v", la, lb, periods, err)
				}
				if got != want.Estimate {
					t.Fatalf("p2p(%d,%d,%v) = %v, want %v (leaders %s/%s)",
						la, lb, periods, got, want.Estimate, leadA.ID, leadB.ID)
				}
			}
			// A missing period must fail, mirroring the server's
			// Collect, on both paths.
			if _, err := rt.QueryPointToPointPersistent(la, lb, []record.PeriodID{1, stored + 1}); err == nil {
				t.Fatalf("p2p(%d,%d) over a missing period succeeded", la, lb)
			}
		}
	}
	// The test is only meaningful if both code paths ran.
	if sameLeader == 0 || crossLeader == 0 {
		t.Fatalf("degenerate leader split: same=%d cross=%d", sameLeader, crossLeader)
	}
}

func TestRouterRefreshOnLeadershipChange(t *testing.T) {
	nodes, rt, _ := clusterOf(t, 3)
	const m = 64

	// Find a location led by nodes[0], then drain nodes[0] behind the
	// router's back. The router's first attempt hits the old leader,
	// gets the not-leader rejection, refreshes, and lands the record.
	ring := rt.Ring()
	var loc int
	for l := 1; l < 256; l++ {
		lead, err := ring.Leader(vhash.LocationID(l))
		if err != nil {
			t.Fatal(err)
		}
		if lead.ID == nodes[0].node.ID() {
			loc = l
			break
		}
	}
	if loc == 0 {
		t.Fatal("node a leads nothing in 255 locations")
	}
	drained := ring.Clone()
	drained.Epoch = 2
	for i := range drained.Members {
		if drained.Members[i].ID == nodes[0].node.ID() {
			drained.Members[i].State = cluster.StateDraining
		}
	}
	pushRingWire(t, drained, nodes...)

	if err := rt.Upload(testRecord(t, loc, 1, m)); err != nil {
		t.Fatalf("upload across leadership change: %v", err)
	}
	if rt.Ring().Epoch != 2 {
		t.Fatalf("router did not adopt the refreshed ring (epoch %d)", rt.Ring().Epoch)
	}
	if _, err := rt.QueryVolume(vhash.LocationID(loc), 1); err != nil {
		t.Fatalf("query after refresh: %v", err)
	}
}

func TestRouterUploadSurvivesFailover(t *testing.T) {
	nodes, rt, _ := clusterOf(t, 3)
	const m = 64
	ring := rt.Ring()

	victim := nodes[0]
	var loc int
	for l := 1; l < 256; l++ {
		lead, err := ring.Leader(vhash.LocationID(l))
		if err != nil {
			t.Fatal(err)
		}
		if lead.ID == victim.node.ID() {
			loc = l
			break
		}
	}
	if loc == 0 {
		t.Fatal("victim leads nothing")
	}
	if err := rt.Upload(testRecord(t, loc, 1, m)); err != nil {
		t.Fatal(err)
	}
	shipAll(t, 2, nodes...)

	// Kill the leader, then complete the failover while the router is
	// already retrying an upload to the dead node.
	if err := victim.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := victim.node.Close(); err != nil {
		t.Fatal(err)
	}
	survivors := nodes[1:]

	done := make(chan error, 1)
	go func() { done <- rt.Upload(testRecord(t, loc, 2, m)) }()

	time.Sleep(250 * time.Millisecond) // let the first attempts fail
	down := ring.Clone()
	down.Epoch = 2
	for i := range down.Members {
		if down.Members[i].ID == victim.node.ID() {
			down.Members[i].State = cluster.StateDown
		}
	}
	// Promote the survivor with the highest applied watermark.
	best := survivors[0]
	for _, tn := range survivors[1:] {
		if tn.node.StatusSnapshot().Applied[victim.node.ID()] > best.node.StatusSnapshot().Applied[victim.node.ID()] {
			best = tn
		}
	}
	down.Promoted = map[string]string{victim.node.ID(): best.node.ID()}
	pushRingWire(t, down, survivors...)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("upload across failover: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("upload hung across failover")
	}

	// Both periods are queryable from the survivors; period 1 was
	// replicated before the kill, period 2 landed on the new leader.
	for _, p := range []record.PeriodID{1, 2} {
		if _, err := rt.QueryVolume(vhash.LocationID(loc), p); err != nil {
			t.Fatalf("volume(%d,%d) after failover: %v", loc, p, err)
		}
	}
}

// TestRouterFollowsRejoinAtNewAddress: after a member leaves and
// rejoins at a new address (a host move), the router uploads to it at
// the new address, although it had a connection to the old one.
func TestRouterFollowsRejoinAtNewAddress(t *testing.T) {
	a, b := startNode(t, "a"), startNode(t, "b")
	r := ringOf(1, 1, a, b)
	pushRingWire(t, r, a, b)
	rt, err := Dial([]string{a.addr}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ledBy := func(r *cluster.Ring, id string) int {
		for l := 1; l < 256; l++ {
			if lead, err := r.Leader(vhash.LocationID(l)); err == nil && lead.ID == id {
				return l
			}
		}
		t.Fatalf("%s leads nothing in 255 locations", id)
		return 0
	}
	const m = 64
	if err := rt.Upload(testRecord(t, ledBy(r, "b"), 1, m)); err != nil {
		t.Fatal(err)
	}

	// b's host goes away; b comes back at a new address and is Up again.
	if err := b.srv.Close(); err != nil {
		t.Fatal(err)
	}
	b2 := startNode(t, "b")
	moved := func(epoch uint64, st cluster.State, addr string) *cluster.Ring {
		c := r.Clone()
		c.Epoch = epoch
		for i := range c.Members {
			if c.Members[i].ID == "b" {
				c.Members[i].State = st
				if addr != "" {
					c.Members[i].Addr = addr
				}
			}
		}
		return c
	}
	pushRingWire(t, moved(2, cluster.StateDraining, ""), a)
	pushRingWire(t, moved(3, cluster.StateLeft, ""), a)
	pushRingWire(t, moved(4, cluster.StateJoining, b2.addr), a, b2)
	up := moved(5, cluster.StateUp, b2.addr)
	pushRingWire(t, up, a, b2)

	if err := rt.Refresh(); err != nil {
		t.Fatal(err)
	}
	loc := ledBy(up, "b")
	if err := rt.Upload(testRecord(t, loc, 2, m)); err != nil {
		t.Fatalf("upload to the moved leader: %v", err)
	}
	if got := b2.node.Periods(vhash.LocationID(loc)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("moved b holds periods %v of loc %d, want [2]", got, loc)
	}
}
