package main

// query-mix: the durable-over-tiered stack preloaded with 32 locations x
// 32 periods of m = 2^20 records (128 MiB against a 32 MiB resident
// budget and a 16 MiB block cache), one connection issuing a Zipf(1.1)
// stream of volume / point / point-to-point queries from a seeded
// catalogue, and a second connection uploading one more record every
// 125 queries (25 ms at today's speed) — which bumps location epochs
// (estimate-cache misses) and forces freezes. Read path under concurrent
// ingest.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ptm/internal/record"
	"ptm/internal/transport"
	"ptm/internal/vhash"
)

const (
	queryM          = 1 << 20
	queryFleet      = 1 << 16
	queryLocations  = 32
	queryPeriods    = 32
	queryBudget     = 32 << 20
	queryBlockCache = 16 << 20
	queryCatalogue  = 4096
	queryZipfS      = 1.1
	// queriesPerSecond sizes the query list (about 6 k queries/s today).
	queriesPerSecond = 5000
	// queryUploadEvery paces the uploader: one record falls due each time
	// the query connection has issued this many queries — 25 ms at
	// today's speed. The pace follows the primary loop's progress, not
	// the wall clock, because a wall-clock pace closes a feedback loop: a
	// run that is 5 % slower sees more invalidations per query, so more
	// estimate-cache misses, so runs slower still, and two runs of one
	// build disagree by 30 %. Tied to the query count, the sequence of
	// queries and epoch bumps — and with it every cache's hit sequence —
	// is the same in every run of a seed, and so is the store's size.
	//
	// The uploaded records carry periods older than every preloaded one
	// (an RSU spool draining after a backhaul outage): each still bumps
	// its location's epoch, and the freezer, which takes oldest periods
	// first, keeps the newest preloaded periods resident for the whole
	// run — so "hot" and "cold" in the catalogue mean the same thing at
	// the first query and at the last.
	queryUploadEvery = queriesPerSecond * 25 / 1000
	queryFirstPeriod = 1 << 16
)

const (
	kindVolume = iota
	kindPoint
	kindP2P
	numKinds
)

var clientSpans = [numKinds]string{"client.Volume", "client.Point", "client.P2P"}

// catalogueEntry is one distinct question.
type catalogueEntry struct {
	kind       int
	locA, locB int // indices into the grid
	first, t   int // period indices [first, first+t)
}

func (q catalogueEntry) periods(grid [][]*record.Record) []record.PeriodID {
	return periodRange(grid[q.locA][q.first].Period, q.t)
}

// wordsFolded is the exact number of bitmap words the query's kernels
// stream when nothing is cached.
func (q catalogueEntry) wordsFolded(m int) int {
	switch q.kind {
	case kindVolume:
		return m / 64
	case kindPoint:
		return q.t * m / 64
	default:
		return 2 * q.t * m / 64
	}
}

// catalogueShapeSeed fixes which rank asks what. A Zipf(1.1) stream
// gives its first rank a sixth of all queries, so if the run's seed also
// chose whether that rank is a one-record volume or a twenty-record
// point-to-point join, two seeds would be two different workloads. The
// seed therefore picks only the locations and period offsets; kind, t
// and age per rank are the same in every run.
const catalogueShapeSeed = 0x70746d6c6f6164

// newCatalogue draws n entries: 20 % volume, 40 % point, 40 %
// point-to-point; t in {3, 5, 10}; half ending at the newest periods and
// half inside the old half of the period range.
func newCatalogue(r *rng, n, locs, periods int) []catalogueEntry {
	shape := newRNG(catalogueShapeSeed)
	cat := make([]catalogueEntry, n)
	for i := range cat {
		q := catalogueEntry{locA: r.intn(locs), t: []int{3, 5, 10}[shape.intn(3)]}
		switch x := shape.intn(5); {
		case x == 0:
			q.kind, q.t = kindVolume, 1
		case x <= 2:
			q.kind = kindPoint
		default:
			q.kind = kindP2P
		}
		q.locB = r.intn(locs - 1)
		if q.locB >= q.locA {
			q.locB++
		}
		q.t = min(q.t, periods/2)
		recent, offset := shape.intn(2) == 0, r.float()
		if recent {
			q.first = periods - q.t - int(offset*2) // ends at the newest period or the one before
		} else {
			q.first = int(offset * float64(periods/2-q.t+1))
		}
		cat[i] = q
	}
	return cat
}

// queryInputs is everything the seed decides.
type queryInputs struct {
	grid     [][]*record.Record // preloaded, [location][period]
	backfill []*record.Record   // the paced uploader's records
	cat      []catalogueEntry
	ops      []uint16 // catalogue indices, in issue order
	digest   digest
	m        int
	// shrink is how much smaller than the benchmark's a smoke-test store
	// is; the budgets shrink with it, so it still ends up three quarters
	// cold.
	shrink int64
}

func genQuery(c *config) (*queryInputs, error) {
	in := &queryInputs{m: c.sized(queryM, 1<<12)}
	locs := c.sized(queryLocations, 8)
	in.shrink = int64(queryM/in.m) * int64(queryLocations/locs)
	r := newRNG(c.seed)
	fleet, err := identities(r.fork(), queryFleet/(queryM/in.m))
	if err != nil {
		return nil, err
	}
	if in.grid, err = recordGrid(r.fork(), fleet, locs, queryPeriods, in.m, queryFirstPeriod); err != nil {
		return nil, err
	}
	for p := 0; p < queryPeriods; p++ {
		for l := range in.grid {
			in.digest.record(in.grid[l][p])
		}
	}
	backfill := c.ops(queriesPerSecond) / queryUploadEvery
	br := r.fork()
	images := make([][]uint64, locs)
	for i := 0; i < backfill; i++ {
		l := i % locs
		if images[l] == nil {
			images[l] = fleetWords(fleet, vhash.LocationID(l+1), in.m)
		}
		rec, err := noisyRecord(br, vhash.LocationID(l+1), queryFirstPeriod-1-record.PeriodID(i/locs), images[l])
		if err != nil {
			return nil, err
		}
		in.backfill = append(in.backfill, rec)
	}
	in.cat = newCatalogue(r.fork(), queryCatalogue, locs, queryPeriods)
	z, or := newZipf(len(in.cat), queryZipfS), r.fork()
	in.ops = make([]uint16, c.ops(queriesPerSecond))
	for i := range in.ops {
		in.ops[i] = uint16(z.draw(or))
		in.digest.u64(uint64(in.ops[i]))
	}
	for _, q := range in.cat {
		in.digest.u64(uint64(q.kind), uint64(q.locA), uint64(q.locB), uint64(q.first), uint64(q.t))
	}
	return in, nil
}

type queryEnv struct {
	*queryInputs
	dir     string
	stack   *centralStack
	queries *transport.Client
	uploads *transport.Client
}

func (e *queryEnv) close() error {
	var errs []error
	for _, cl := range []*transport.Client{e.queries, e.uploads} {
		if cl != nil {
			errs = append(errs, cl.Close())
		}
	}
	if e.stack != nil {
		errs = append(errs, e.stack.close())
	}
	return errors.Join(append(errs, os.RemoveAll(e.dir))...)
}

// openQuery opens a stack in the directory name under the run's scratch,
// preloads it and dials the two connections; tr, when not nil, puts the
// decorators on the stack's seams.
func openQuery(c *config, in *queryInputs, name string, tr *tracer) (*queryEnv, error) {
	e := &queryEnv{queryInputs: in, dir: filepath.Join(c.dir, name)}
	var err error
	e.stack, err = openCentralStack(e.dir, stackOptions{
		residentBudget: queryBudget / in.shrink, blockCache: queryBlockCache / in.shrink, tr: tr})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(e.dir))
	}
	// Preload period by period, oldest first, through the durable ingest
	// path (no decorator: set-up is not traced).
	for p := 0; p < queryPeriods; p++ {
		for l := range e.grid {
			if err := e.stack.durable.Ingest(e.grid[l][p]); err != nil {
				return nil, errors.Join(err, e.close())
			}
		}
	}
	if e.queries, err = transport.Dial(e.stack.addr(), dialTimeout); err != nil {
		return nil, errors.Join(err, e.close())
	}
	if e.uploads, err = transport.Dial(e.stack.addr(), dialTimeout); err != nil {
		return nil, errors.Join(err, e.close())
	}
	return e, nil
}

func buildQuery(c *config) (*queryEnv, error) {
	in, err := genQuery(c)
	if err != nil {
		return nil, err
	}
	return openQuery(c, in, "query", nil)
}

type queryRun struct {
	lat      [numKinds][]float64 // ms per query, by kind
	acks     []float64           // ms from when each paced upload fell due to its ack
	late     []float64           // ms each paced upload started after it fell due
	answers  []float64           // first answer per catalogue entry
	seen     []bool
	uploaded int // backfill records sent so far
	elapsed  time.Duration
}

func (e *queryEnv) newRun() *queryRun {
	return &queryRun{answers: make([]float64, len(e.cat)), seen: make([]bool, len(e.cat))}
}

func (r *queryRun) rate(n int) float64 { return float64(n) / r.elapsed.Seconds() }

// ask issues one catalogue entry on the query connection.
func (e *queryEnv) ask(q catalogueEntry) (float64, error) {
	loc := e.grid[q.locA][0].Location
	switch q.kind {
	case kindVolume:
		return e.queries.QueryVolume(loc, e.grid[q.locA][q.first].Period)
	case kindPoint:
		return e.queries.QueryPointPersistent(loc, q.periods(e.grid))
	default:
		return e.queries.QueryPointToPointPersistent(loc, e.grid[q.locB][0].Location, q.periods(e.grid))
	}
}

// mix runs queries [lo, hi) of the list with the paced uploader beside
// them, and adds what it measured to run.
func (e *queryEnv) mix(rep *report, tr *tracer, lo, hi int, run *queryRun) error {
	// due carries the moment each upload fell due. It holds the whole
	// backlog, so the query loop never waits for the uploader: an open
	// loop, whose queue may grow.
	due := make(chan time.Time, len(e.backfill))
	uploaderDone := make(chan error, 1)
	go func() { uploaderDone <- e.pacedUploads(run, due, tr) }()

	var qerr error
	start := time.Now()
	for i := lo; i < hi; i++ {
		k := e.ops[i]
		q := e.cat[k]
		id := noSpan
		if tr != nil {
			id = tr.beginQuery(clientSpans[q.kind], int64(i))
		}
		t0 := time.Now()
		v, err := e.ask(q)
		run.lat[q.kind] = append(run.lat[q.kind], ms(time.Since(t0)))
		if tr != nil {
			tr.endQuery(id)
		}
		if err != nil {
			qerr = fmt.Errorf("query %d (%s): %v", i, clientSpans[q.kind], err)
			break
		}
		if (i+1)%queryUploadEvery == 0 && (i+1)/queryUploadEvery <= len(e.backfill) {
			due <- time.Now()
		}
		if !run.seen[k] {
			run.seen[k], run.answers[k] = true, v
			continue
		}
		// The same question must get the same bits every time, whatever
		// was ingested, frozen or evicted in between.
		rep.check(sameBits(v, run.answers[k]), "query %d: entry %d answered %v, earlier %v", i, k, v, run.answers[k])
	}
	run.elapsed += time.Since(start)
	// The uploads already due are let through (a handful at most), so
	// the store ends every run of a seed holding the same records.
	close(due)
	return errors.Join(qerr, <-uploaderDone)
}

// pacedUploads uploads the next backfill record each time one falls due,
// and times it from that moment.
func (e *queryEnv) pacedUploads(run *queryRun, due <-chan time.Time, tr *tracer) error {
	for at := range due {
		i := run.uploaded
		rec := e.backfill[i]
		run.late = append(run.late, ms(time.Since(at)))
		id := noSpan
		if tr != nil {
			id = tr.beginUpload("client.Upload", int64(len(e.ops)+i), rec)
		}
		err := e.uploads.Upload(rec)
		run.acks = append(run.acks, ms(time.Since(at)))
		if tr != nil {
			tr.end(id)
		}
		if err != nil {
			return fmt.Errorf("paced upload %d: %v", i, err)
		}
		run.uploaded++
	}
	return nil
}

// verify compares the first answer of every catalogue entry the run
// used with the reference computed from the generator's records.
func (e *queryEnv) verify(c *config, rep *report, run *queryRun) {
	v := &verifier{rep: rep, corrupt: c.corruptReference, fleet: queryFleet / (queryM / e.m)}
	for k, q := range e.cat {
		if !run.seen[k] {
			continue
		}
		a := e.grid[q.locA][q.first : q.first+q.t]
		switch q.kind {
		case kindVolume:
			v.volume(run.answers[k], nil, a[0])
		case kindPoint:
			v.point(run.answers[k], nil, a)
		default:
			v.p2p(run.answers[k], nil, a, e.grid[q.locB][q.first:q.first+q.t])
		}
	}
}

func runQueryMix(c *config, rep *report) (err error) {
	if c.trace {
		return traceQueryMix(c, rep)
	}
	e, setupS, err := timedSetup(func() (*queryEnv, error) { return buildQuery(c) })
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	rep.digest = e.digest.String()
	run := e.newRun()
	if err := e.mix(rep, nil, 0, len(e.ops), run); err != nil {
		return err
	}
	e.verify(c, rep, run)
	rep.set("setup_s", setupS)
	rep.set("queries_per_s", run.rate(len(e.ops)))
	rep.setPercentile("point_p50_ms", run.lat[kindPoint], 0.50)
	rep.setPercentile("p2p_p50_ms", run.lat[kindP2P], 0.50)
	rep.setPercentile("upload_ack_p50_ms", run.acks, 0.50)
	cache := e.stack.durable.EstCacheStats()
	rep.notef("%d queries in %.2f s; %d paced uploads, median %.3f ms late; estimate cache %d hits / %d misses",
		len(e.ops), run.elapsed.Seconds(), len(run.acks), median(run.late), cache.Hits, cache.Misses)
	return nil
}

func traceQueryMix(c *config, rep *report) (err error) {
	in, err := genQuery(c)
	if err != nil {
		return err
	}
	rep.digest = in.digest.String()
	tr := newTracer(8 * len(in.ops))
	e, err := openQuery(c, in, "traced", tr)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	tr.reset()
	d := e.stack.durable
	log0, cache0, est0 := d.LogStats(), e.stack.tiered.CacheStats(), d.EstCacheStats()
	plain, run := e.newRun(), e.newRun()
	err = func() (err error) {
		plainEnv, err := openQuery(c, in, "plain", nil)
		if err != nil {
			return err
		}
		defer func() { err = errors.Join(err, plainEnv.close()) }()
		return alternate(len(in.ops),
			func(lo, hi int) error { return plainEnv.mix(rep, nil, lo, hi, plain) },
			func(lo, hi int) error { return e.mix(rep, tr, lo, hi, run) })
	}()
	if err != nil {
		return err
	}
	log1, cache1, est1 := d.LogStats(), e.stack.tiered.CacheStats(), d.EstCacheStats()
	e.verify(c, rep, run)
	times, err := finishTrace(rep, tr)
	if err != nil {
		return err
	}

	rep.set("trace_overhead_pct", overheadPct(plain.rate(len(e.ops)), run.rate(len(e.ops))))
	rep.notef("queries_per_s untraced %.0f, traced %.0f", plain.rate(len(e.ops)), run.rate(len(e.ops)))
	rep.set("transport.point_self_us", median(times.self["client.Point"]))
	rep.set("transport.p2p_self_us", median(times.self["client.P2P"]))
	rep.set("transport.upload_self_us", median(times.self["client.Upload"]))
	rep.setPercentile("transport.point_p99_ms", run.lat[kindPoint], 0.99)
	rep.setPercentile("transport.p2p_p99_ms", run.lat[kindP2P], 0.99)
	rep.setPercentile("transport.upload_ack_p99_ms", run.acks, 0.99)
	rep.set("central.point_self_us", median(times.self["central.PointPersistent"]))
	rep.set("central.p2p_self_us", median(times.self["central.PointToPointPersistent"]))
	rep.set("central.ingest_us", median(times.total["central.Ingest"]))
	rep.set("central.ingest_self_us", median(times.self["central.Ingest"]))
	rep.set("store.ingest_us", median(times.total["store.Ingest"]))
	rep.setPercentile("store.ingest_p99_us", times.total["store.Ingest"], 0.99)
	rep.set("store.collect_hot_us", median(times.total["store.Collect.hot"]))
	rep.set("store.collect_cold_us", median(times.total["store.Collect.cold"]))

	if err := blockingPath(rep, times, "client.P2P", "p2p_p50_ms", plain.lat[kindP2P]); err != nil {
		return err
	}

	if lookups := float64(est1.Hits - est0.Hits + est1.Misses - est0.Misses); lookups > 0 {
		rep.set("central.estcache_hit_ratio", float64(est1.Hits-est0.Hits)/lookups)
	}
	rep.set("central.estcache_invalidations", float64(est1.Invalidations-est0.Invalidations))
	setWALDeltas(rep, log0, log1)
	setBlockCacheDeltas(rep, cache0, cache1)
	rep.set("store.cold_records", float64(e.stack.tiered.Stats().ColdRecords))

	words := 0
	for _, k := range e.ops {
		words += e.cat[k].wordsFolded(e.m)
	}
	rep.set("core.words_folded_per_query", float64(words)/float64(len(e.ops)))
	if err := driveEstimators(rep, e.grid[0], e.grid[1], []int{3, 5, 10}); err != nil {
		return err
	}
	return driveAndOnes(rep, e.grid[0][:5])
}
