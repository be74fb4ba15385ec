package main

// ring-mixed: three in-process cluster.Nodes (R = 2, each with its own
// SyncAlways WAL over a resident store, shipping every 100 ms) behind one
// router that uploads batches of eight m = 2^15 records, while a second
// router alternates point, colocated point-to-point and cross-partition
// point-to-point queries (t = 4) until the uploader finishes. cluster and
// router do most of the work here — leader gate, segment shipping,
// scatter-gather, fetch-and-join; the kernels are negligible at this m
// and the data fits in memory.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"ptm/internal/central"
	"ptm/internal/cluster"
	"ptm/internal/cluster/router"
	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/vhash"
	"ptm/internal/wal"
)

const (
	ringNodes        = 3
	ringReplicas     = 2
	ringLocations    = 24
	ringM            = 1 << 15
	ringFleet        = 1 << 11
	ringBatchSize    = 8
	ringT            = 4
	ringShipInterval = 100 * time.Millisecond
	// ringPreloadPeriods are uploaded during set-up, so the first query
	// already has t periods to join and every node has met its peers
	// (first contact is a full sync; the run must see none). 160 of them
	// keep the set-up above 1.5 s when the disk is at its fastest; with 96
	// it dipped to 1.3 s.
	ringPreloadPeriods = 160
	// ringBatchesPerSecond sizes the upload list: 2320 batches at
	// -seconds 20, which the three logs ack at 0.7-1.1 k records/s today.
	// A traced pass runs half of them, 1160: enough for the p99 of the ack.
	ringBatchesPerSecond = 116
	// ringQueryList is how many query operations are drawn; the query
	// loop runs until the uploader finishes and wraps around if it gets
	// through them all.
	ringQueryList = 1 << 14
)

const (
	ringPoint = iota
	ringColocated
	ringCross
	ringKinds
)

var ringSpans = [ringKinds]string{"client.Point", "client.P2P", "client.P2PCross"}

type ringNode struct {
	dir     string
	durable *central.Durable
	node    *cluster.Node
	seam    *tracedTransportStore // nil when untraced
	server  *listener
}

func (n *ringNode) close() error {
	return errors.Join(n.node.Close(), n.server.close(), n.durable.Close(), n.durable.CloseStore())
}

func startRingNode(dir, id string, tr *tracer) (*ringNode, error) {
	mem, err := store.NewMem(0)
	if err != nil {
		return nil, err
	}
	srv, err := central.NewServerWithStore(representativeBits, mem)
	if err != nil {
		return nil, err
	}
	durable, err := central.OpenDurableServer(filepath.Join(dir, "wal"), srv, wal.Options{Sync: wal.SyncAlways}, 0)
	if err != nil {
		return nil, err
	}
	node, err := cluster.NewNode(durable, cluster.Config{
		ID: id, RingPath: filepath.Join(dir, "ring.json"), ShipInterval: ringShipInterval, DialTimeout: dialTimeout})
	if err != nil {
		return nil, errors.Join(err, durable.Close())
	}
	n := &ringNode{dir: dir, durable: durable, node: node}
	var ts transport.Store = node
	if tr != nil {
		n.seam = traceTransportStore(node, "cluster", tr)
		ts = n.seam
	}
	if n.server, err = listen(ts); err != nil {
		return nil, errors.Join(err, node.Close(), durable.Close())
	}
	return n, nil
}

// ringOp is one query of the secondary loop. Its periods are the t
// ending age periods before the newest one acked when it is issued.
type ringOp struct {
	kind       int
	locA, locB int // indices into the grid
	age        int
}

// ringInputs is everything the seed decides.
type ringInputs struct {
	grid    [][]*record.Record // [location][period]
	preload [][]*record.Record // batches uploaded during set-up
	batches [][]*record.Record // the measured upload list
	ops     []ringOp
	digest  digest
}

// ringLayout is the ring every run installs, less the members' addresses.
// Which node leads a location depends only on the fixed member and
// location ids, so the partition layout is the same for every seed.
func ringLayout() *cluster.Ring {
	ring := &cluster.Ring{Epoch: 1, Replicas: ringReplicas, VNodes: cluster.DefaultVNodes}
	for i := 0; i < ringNodes; i++ {
		ring.Members = append(ring.Members, cluster.Member{ID: string(rune('a' + i)), State: cluster.StateUp})
	}
	return ring
}

func genRing(c *config) (*ringInputs, error) {
	in := &ringInputs{}
	r := newRNG(c.seed)
	fleet, err := identities(r.fork(), ringFleet)
	if err != nil {
		return nil, err
	}
	batchesPerPeriod := ringLocations / ringBatchSize
	preload := c.sized(ringPreloadPeriods, 2*ringT)
	periods := preload + max(c.ops(ringBatchesPerSecond)/batchesPerPeriod, 2*ringT)
	if in.grid, err = recordGrid(r.fork(), fleet, ringLocations, periods, ringM, 1); err != nil {
		return nil, err
	}
	var all [][]*record.Record
	for p := 0; p < periods; p++ {
		for l := 0; l < ringLocations; l += ringBatchSize {
			batch := make([]*record.Record, ringBatchSize)
			for i := range batch {
				batch[i] = in.grid[l+i][p]
				in.digest.record(batch[i])
			}
			all = append(all, batch)
		}
	}
	in.preload, in.batches = all[:preload*batchesPerPeriod], all[preload*batchesPerPeriod:]

	// Query operations: pairs are colocated or cross-partition by what
	// the ring says.
	layout := ringLayout()
	var colocated, cross [][2]int
	for a := 0; a < ringLocations; a++ {
		for b := a + 1; b < ringLocations; b++ {
			la, err := layout.Leader(vhash.LocationID(a + 1))
			if err != nil {
				return nil, err
			}
			lb, err := layout.Leader(vhash.LocationID(b + 1))
			if err != nil {
				return nil, err
			}
			if la.ID == lb.ID {
				colocated = append(colocated, [2]int{a, b})
			} else {
				cross = append(cross, [2]int{a, b})
			}
		}
	}
	if len(colocated) == 0 || len(cross) == 0 {
		return nil, fmt.Errorf("ring has %d colocated and %d cross-partition pairs; need both", len(colocated), len(cross))
	}
	or := r.fork()
	in.ops = make([]ringOp, ringQueryList)
	for i := range in.ops {
		op := ringOp{kind: i % ringKinds, locA: or.intn(ringLocations), age: or.intn(ringT)}
		switch op.kind {
		case ringColocated:
			pair := colocated[or.intn(len(colocated))]
			op.locA, op.locB = pair[0], pair[1]
		case ringCross:
			pair := cross[or.intn(len(cross))]
			op.locA, op.locB = pair[0], pair[1]
		}
		in.ops[i] = op
		in.digest.u64(uint64(op.kind), uint64(op.locA), uint64(op.locB), uint64(op.age))
	}
	return in, nil
}

type ringEnv struct {
	*ringInputs
	dir      string
	nodes    []*ringNode
	uploader *router.Router
	querier  *router.Router
	acked    atomic.Int64 // periods fully acked, preload included
}

func (e *ringEnv) close() error {
	var errs []error
	for _, rt := range []*router.Router{e.uploader, e.querier} {
		if rt != nil {
			errs = append(errs, rt.Close())
		}
	}
	for _, n := range e.nodes {
		errs = append(errs, n.close())
	}
	return errors.Join(append(errs, os.RemoveAll(e.dir))...)
}

// openRing starts the nodes in the directory name under the run's scratch,
// installs the ring and preloads; tr, when not nil, puts the decorator on
// every node's transport.Store seam.
func openRing(c *config, in *ringInputs, name string, tr *tracer) (_ *ringEnv, err error) {
	e := &ringEnv{ringInputs: in, dir: filepath.Join(c.dir, name)}
	defer func() {
		if err != nil {
			err = errors.Join(err, e.close())
		}
	}()
	ring := ringLayout()
	for i := range ring.Members {
		m := &ring.Members[i]
		n, err := startRingNode(filepath.Join(e.dir, m.ID), m.ID, tr)
		if err != nil {
			return nil, err
		}
		e.nodes = append(e.nodes, n)
		m.Addr = n.server.addr
	}
	if err := pushRing(ring, e.nodes); err != nil {
		return nil, err
	}
	seeds := []string{e.nodes[0].server.addr}
	if e.uploader, err = router.Dial(seeds, dialTimeout); err != nil {
		return nil, err
	}
	if e.querier, err = router.Dial(seeds, dialTimeout); err != nil {
		return nil, err
	}
	for _, batch := range in.preload {
		if n, err := e.uploader.UploadBatch(batch); err != nil || n != len(batch) {
			return nil, fmt.Errorf("preload: %d of %d acked: %v", n, len(batch), err)
		}
	}
	e.acked.Store(int64(len(in.preload) / (ringLocations / ringBatchSize)))
	// Two rounds: leaders meet their followers (the full sync of first
	// contact), then everything sealed so far is shipped.
	for round := 0; round < 2; round++ {
		for _, n := range e.nodes {
			if err := n.node.ShipNow(); err != nil {
				return nil, err
			}
		}
	}
	return e, nil
}

func buildRing(c *config) (*ringEnv, error) {
	in, err := genRing(c)
	if err != nil {
		return nil, err
	}
	return openRing(c, in, "ring", nil)
}

// pushRing installs the ring on every node over the wire, as ptmcluster
// does.
func pushRing(ring *cluster.Ring, nodes []*ringNode) error {
	enc, err := cluster.EncodeRing(ring)
	if err != nil {
		return err
	}
	for _, n := range nodes {
		cl, err := transport.Dial(n.server.addr, dialTimeout)
		if err != nil {
			return err
		}
		resp, err := cl.Call(transport.MsgRingSet, enc, transport.MsgRing)
		if err == nil {
			_, err = cluster.DecodeResponse(resp)
		}
		if err := errors.Join(err, cl.Close()); err != nil {
			return err
		}
	}
	return nil
}

// ringAnswer is one executed query, kept for verification after the run.
type ringAnswer struct {
	op    ringOp
	first int // period index of the first of the t periods
	got   float64
}

type ringRun struct {
	acks    []float64 // ms per router.UploadBatch
	lat     [ringKinds][]float64
	answers []ringAnswer
	elapsed time.Duration // the upload list
	queried time.Duration // the query loop, which may outlast it (see queryLoop)
}

func (r *ringRun) uploadRate(records int) float64 { return float64(records) / r.elapsed.Seconds() }

func (r *ringRun) queries() int { return len(r.answers) }

// mixed runs the upload list on one router, with the query loop on the
// other until the uploads are done. Every acked batch is one checked
// operation.
func (e *ringEnv) mixed(rep *report, tr *tracer, run *ringRun) error {
	stop := make(chan struct{})
	queriesDone := make(chan error, 1)
	start := time.Now()
	go func() { queriesDone <- e.queryLoop(run, stop, tr) }()

	batchesPerPeriod := ringLocations / ringBatchSize
	var uerr error
	for b, batch := range e.batches {
		id := noSpan
		if tr != nil {
			id = tr.beginUpload("client.UploadBatch", int64(b), batch...)
		}
		t0 := time.Now()
		n, err := e.uploader.UploadBatch(batch)
		run.acks = append(run.acks, ms(time.Since(t0)))
		if tr != nil {
			tr.end(id)
		}
		rep.check(err == nil && n == len(batch), "batch %d: %d of %d acked: %v", b, n, len(batch), err)
		if err != nil || n != len(batch) {
			uerr = fmt.Errorf("batch %d: %d of %d acked: %v", b, n, len(batch), err)
			break
		}
		if (b+1)%batchesPerPeriod == 0 {
			e.acked.Add(1)
		}
	}
	run.elapsed = time.Since(start)
	close(stop)
	return errors.Join(uerr, <-queriesDone)
}

// queryLoop asks until the uploads are done — and, where those take no
// time at all (a smoke test on a memory-backed filesystem), until every
// kind of query has the twenty answers its median needs.
func (e *ringEnv) queryLoop(run *ringRun, stop <-chan struct{}, tr *tracer) error {
	start := time.Now()
	for i := 0; ; i++ {
		select {
		case <-stop:
			if i >= 20*ringKinds {
				run.queried = time.Since(start)
				return nil
			}
		default:
		}
		op := e.ops[i%len(e.ops)]
		first := int(e.acked.Load()) - op.age - ringT
		periods := periodRange(e.grid[0][first].Period, ringT)
		locA, locB := vhash.LocationID(op.locA+1), vhash.LocationID(op.locB+1)
		id := noSpan
		if tr != nil {
			id = tr.beginQuery(ringSpans[op.kind], int64(len(e.batches)+i))
		}
		t0 := time.Now()
		var v float64
		var err error
		if op.kind == ringPoint {
			v, err = e.querier.QueryPointPersistent(locA, periods)
		} else {
			v, err = e.querier.QueryPointToPointPersistent(locA, locB, periods)
		}
		run.lat[op.kind] = append(run.lat[op.kind], ms(time.Since(t0)))
		if tr != nil {
			tr.endQuery(id)
		}
		if err != nil {
			return fmt.Errorf("query %d (%s): %v", i, ringSpans[op.kind], err)
		}
		run.answers = append(run.answers, ringAnswer{op: op, first: first, got: v})
	}
}

// fullSyncs and the other shipper counters, summed over every node's
// peers.
type shipCounters struct {
	fullSyncs, records int64
	maxLag             uint64
}

func (e *ringEnv) shipCounters() shipCounters {
	var sc shipCounters
	for _, n := range e.nodes {
		for _, peer := range n.node.StatusSnapshot().Peers {
			sc.fullSyncs += peer.FullSyncs
			sc.records += peer.Records
			sc.maxLag = max(sc.maxLag, peer.Lag)
		}
	}
	return sc
}

func (e *ringEnv) logStats() wal.Stats {
	var total wal.Stats
	for _, n := range e.nodes {
		st := n.durable.LogStats()
		total.Appends += st.Appends
		total.Syncs += st.Syncs
		total.Rotations += st.Rotations
	}
	return total
}

// verify checks every answer of the query loop. That loop runs for as
// long as the uploads take, so how many answers there are differs from
// run to run: they are verified as extras, outside ops_attempted.
func (e *ringEnv) verify(c *config, rep *report, run *ringRun, syncsDuringRun int64) {
	v := &verifier{rep: rep, corrupt: c.corruptReference, fleet: ringFleet, extra: true}
	for _, a := range run.answers {
		recsA := e.grid[a.op.locA][a.first : a.first+ringT]
		if a.op.kind == ringPoint {
			v.point(a.got, nil, recsA)
		} else {
			v.p2p(a.got, nil, recsA, e.grid[a.op.locB][a.first:a.first+ringT])
		}
	}
	rep.notef("%d answers of the query loop verified", len(run.answers))
	rep.check(syncsDuringRun == 0, "%d full syncs during the run; incremental shipping should have kept up", syncsDuringRun)
}

func runRingMixed(c *config, rep *report) (err error) {
	if c.trace {
		return traceRingMixed(c, rep)
	}
	e, setupS, err := timedSetup(func() (*ringEnv, error) { return buildRing(c) })
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	rep.digest = e.digest.String()
	ship0 := e.shipCounters()
	run := &ringRun{}
	if err := e.mixed(rep, nil, run); err != nil {
		return err
	}
	e.verify(c, rep, run, e.shipCounters().fullSyncs-ship0.fullSyncs)
	records := len(e.batches) * ringBatchSize
	rep.set("setup_s", setupS)
	rep.set("upload_records_per_s", run.uploadRate(records))
	rep.setPercentile("upload_ack_p50_ms", run.acks, 0.50)
	rep.set("queries_per_s", float64(run.queries())/run.queried.Seconds())
	rep.setPercentile("point_p50_ms", run.lat[ringPoint], 0.50)
	rep.setPercentile("p2p_p50_ms", run.lat[ringColocated], 0.50)
	rep.setPercentile("p2p_cross_p50_ms", run.lat[ringCross], 0.50)
	rep.notef("%d records acked and %d queries answered in %.2f s", records, run.queries(), run.elapsed.Seconds())
	return nil
}

func traceRingMixed(c *config, rep *report) (err error) {
	in, err := genRing(c)
	if err != nil {
		return err
	}
	rep.digest = in.digest.String()
	// The two passes run one after the other here, not in turns like the
	// other workloads': a cluster left idle every other slice would finish
	// its shipping in the gaps, and ship_round_ms and ship_lag_segments
	// would measure nothing. The price is that trace_overhead_pct carries
	// the machine's drift between the passes.
	plain, run := &ringRun{}, &ringRun{}
	err = func() (err error) {
		plainEnv, err := openRing(c, in, "plain", nil)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, plainEnv.close()) }()
		return plainEnv.mixed(rep, nil, plain)
	}()
	if err != nil {
		return err
	}
	tr := newTracer(64 * len(in.batches))
	e, err := openRing(c, in, "traced", tr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	tr.reset()
	for _, n := range e.nodes {
		n.seam.fetches.Store(0)
		n.seam.fetchBytes.Store(0)
	}
	ship0, log0 := e.shipCounters(), e.logStats()
	if err := e.mixed(rep, tr, run); err != nil {
		return err
	}
	// Direct drive: one explicit shipping round per node, timed; it also
	// ships what the background shipper had not got to. After a second
	// round every replica holds every record, so the counters below are
	// the same in every run of a seed.
	lag := e.shipCounters().maxLag
	var rounds []float64
	for round := 0; round < 2; round++ {
		for _, n := range e.nodes {
			t0 := time.Now()
			if err := n.node.ShipNow(); err != nil {
				return err
			}
			if round == 0 {
				rounds = append(rounds, ms(time.Since(t0)))
			}
		}
	}
	ship1, log1 := e.shipCounters(), e.logStats()
	e.verify(c, rep, run, ship1.fullSyncs-ship0.fullSyncs)
	times, err := finishTrace(rep, tr)
	if err != nil {
		return err
	}

	records := len(e.batches) * ringBatchSize
	rep.set("trace_overhead_pct", overheadPct(plain.uploadRate(records), run.uploadRate(records)))
	rep.notef("upload_records_per_s untraced %.0f, traced %.0f", plain.uploadRate(records), run.uploadRate(records))
	rep.set("cluster.node_ingest_us", median(times.total["cluster.Ingest"]))
	rep.set("router.upload_self_us", median(times.self["client.UploadBatch"]))
	rep.setPercentile("router.upload_ack_p99_ms", run.acks, 0.99)
	rep.setPercentile("router.p2p_cross_p99_ms", run.lat[ringCross], 0.99)
	rep.setPercentile("transport.point_p99_ms", run.lat[ringPoint], 0.99)
	rep.setPercentile("transport.p2p_p99_ms", run.lat[ringColocated], 0.99)
	rep.set("transport.point_self_us", median(times.self["client.Point"]))
	rep.set("transport.p2p_self_us", median(times.self["client.P2P"]))
	var fetches, fetchBytes int64
	for _, n := range e.nodes {
		fetches += n.seam.fetches.Load()
		fetchBytes += n.seam.fetchBytes.Load()
	}
	if crossQueries := len(run.lat[ringCross]); crossQueries > 0 {
		rep.set("router.fetch_bytes_per_cross_query", float64(fetchBytes)/float64(crossQueries))
		rep.notef("%d record fetches for %d cross-partition queries; the last fetched %.0f KiB against %d B of records joined",
			fetches, crossQueries, float64(e.acked.Load())*ringM/8/1024, ringT*ringM/8)
	}
	rep.set("cluster.full_syncs", float64(ship1.fullSyncs-ship0.fullSyncs))
	rep.set("cluster.records_shipped", float64(ship1.records-ship0.records))
	rep.set("cluster.ship_lag_segments", float64(lag))
	rep.set("cluster.ship_round_ms", median(rounds))
	setWALDeltas(rep, log0, log1)

	// Direct drive: the estimators at this workload's m and t.
	if err := driveEstimators(rep, e.grid[0], e.grid[1], []int{ringT}); err != nil {
		return err
	}
	rep.set("core.words_folded_per_query", float64(ringT*ringM/64)*(1+2+2)/ringKinds)
	return driveWALAppend(rep, filepath.Join(e.dir, "scratch-wal"))
}
