package main

// Direct-drive phases: where no interface seam exists, the traced run
// calls a layer's public function on the workload's own inputs and times
// it. Also the small helpers the traced passes share.

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ptm/internal/bitmap"
	"ptm/internal/core"
	"ptm/internal/dsrc"
	"ptm/internal/record"
	"ptm/internal/store"
	"ptm/internal/transport"
	"ptm/internal/wal"
)

// directReps is how often a direct-drive loop repeats; the median
// repetition is reported.
const directReps = 5

// perOp runs body (which performs n operations) directReps times and
// returns the median cost of one operation in nanoseconds.
func perOp(n int, body func() error) (float64, error) {
	times := make([]float64, directReps)
	for i := range times {
		start := time.Now()
		if err := body(); err != nil {
			return 0, err
		}
		times[i] = float64(time.Since(start)) / float64(n)
	}
	return median(times), nil
}

// perCall is perOp for a body that performs one operation and costs
// microseconds, where the call through the closure does not show.
func perCall(n int, call func() error) (float64, error) {
	return perOp(n, func() error {
		for i := 0; i < n; i++ {
			if err := call(); err != nil {
				return err
			}
		}
		return nil
	})
}

// sink keeps results alive so the compiler cannot drop a timed loop;
// atomic because tests run workloads in parallel.
var sink atomic.Uint64

// traceRounds is how many slices a traced run cuts its operation list
// into.
const traceRounds = 10

// alternate runs an operation list of n slice by slice, each slice on the
// undecorated environment and then on the decorated one. The machine's
// speed drifts by a fifth over minutes; taken in turns both passes meet
// the same drift, so the gap between them is the decorators' cost, and
// the traced blocking path can be held against the untraced median.
func alternate(n int, plain, traced func(lo, hi int) error) error {
	for r := 0; r < traceRounds; r++ {
		lo, hi := n*r/traceRounds, n*(r+1)/traceRounds
		if lo == hi {
			continue
		}
		if err := plain(lo, hi); err != nil {
			return err
		}
		if err := traced(lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// overheadPct is how much slower the traced pass ran its primary loop.
func overheadPct(untracedRate, tracedRate float64) float64 {
	return (untracedRate - tracedRate) / untracedRate * 100
}

// setWALDeltas reports what the log did between two Stats snapshots.
func setWALDeltas(rep *report, before, after wal.Stats) {
	appends, syncs := float64(after.Appends-before.Appends), float64(after.Syncs-before.Syncs)
	rep.set("wal.appends", appends)
	rep.set("wal.syncs", syncs)
	if appends > 0 {
		rep.set("wal.syncs_per_append", syncs/appends)
	}
	rep.set("wal.rotations", float64(after.Rotations-before.Rotations))
}

// setBlockCacheDeltas reports what the cold-read cache did between two
// CacheStats snapshots.
func setBlockCacheDeltas(rep *report, before, after store.CacheStats) {
	hits, misses := float64(after.Hits-before.Hits), float64(after.Misses-before.Misses)
	if hits+misses > 0 {
		rep.set("store.blockcache_hit_ratio", hits/(hits+misses))
	}
	rep.set("store.blockcache_evictions", float64(after.Evictions-before.Evictions))
}

// finishTrace writes the span file and returns the analysis.
func finishTrace(rep *report, tr *tracer) (spanTimes, error) {
	spans := tr.snapshot()
	path := filepath.Join(rep.traceDir, rep.workload+".trace.jsonl")
	if err := writeSpans(path, spans); err != nil {
		return spanTimes{}, err
	}
	rep.notef("%d spans written to %s", len(spans), path)
	return analyze(spans), nil
}

// blockingPathTolerance is how far the traced blocking path's per-layer
// self times may sum from the untraced median of the same request.
const blockingPathTolerance = 0.15

// blockingPath reports where the typical request of one kind spends its
// time, layer by layer, and checks the sum against the same percentile of
// the untraced pass. Like a percentile, the comparison needs ten requests
// to stand on: with fewer in the median band (a smoke test's few hundred
// operations) the line is printed and nothing is checked.
func blockingPath(rep *report, times spanTimes, root, metric string, untraced []float64) error {
	p50, err := percentile(untraced, 0.50)
	if err != nil {
		return err
	}
	byLayer, total, requests := pathAtMedian(times.spans, root)
	layers := make([]string, 0, len(byLayer))
	for l := range byLayer {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	var parts []string
	for _, l := range layers {
		parts = append(parts, fmt.Sprintf("%s %.0f us", l, byLayer[l]))
	}
	rep.notef("blocking path of the median %s (%d requests): %s = %.3f ms; untraced %s %.3f ms (path is %.0f%% of it)",
		root, requests, strings.Join(parts, " + "), total/1e3, metric, p50, total/1e3/p50*100)
	if requests < 10 {
		return nil
	}
	rep.checkTiming(math.Abs(total/1e3-p50) <= blockingPathTolerance*p50,
		"blocking path of %s sums to %.3f ms, not within %.0f%% of the untraced %s %.3f ms", root, total/1e3, blockingPathTolerance*100, metric, p50)
	return nil
}

func traceEdgeStorm(c *config, rep *report) error {
	e, err := buildEdge(c)
	if err != nil {
		return err
	}
	defer e.close()
	rep.digest = e.digest.String()
	tr := newTracer(4 * e.periods)
	plain, traced := e.newRun(), e.newRun()
	var sent dsrc.Stats // the traced slices' share of the channel counters
	err = alternate(e.periods,
		func(lo, hi int) error { return e.storm(nil, lo, hi, plain) },
		func(lo, hi int) error {
			before := e.channelStats()
			err := e.storm(tr, lo, hi, traced)
			after := e.channelStats()
			sent.ReportsSent += after.ReportsSent - before.ReportsSent
			sent.ReportsLost += after.ReportsLost - before.ReportsLost
			return err
		})
	if err != nil {
		return err
	}
	e.verify(c, traced, rep)
	if _, err := finishTrace(rep, tr); err != nil {
		return err
	}
	rate := func(r *edgeRun) float64 { return float64(r.reports) / r.elapsed.Seconds() }
	rep.set("trace_overhead_pct", overheadPct(rate(plain), rate(traced)))
	rep.notef("reports_per_s untraced %.0f, traced %.0f", rate(plain), rate(traced))

	rep.set("dsrc.reports_sent", float64(sent.ReportsSent))
	rep.set("dsrc.reports_lost", float64(sent.ReportsLost))
	rep.set("rsu.rotate_us", median(traced.rotations))
	var dropped uint64
	for _, u := range e.units {
		dropped += u.Stats().ReportsDrop
	}
	rep.set("rsu.reports_seen", float64(traced.reports))
	rep.set("rsu.reports_dropped", float64(dropped))
	rep.set("rsu.load_factor", float64(e.m)/float64(e.volume()))

	// Direct drive, on the first slice of the workload's own identities.
	ids := e.ids[:min(len(e.ids), 1<<20)]
	loc := e.units[0].Location()
	indexNs, err := perOp(len(ids), func() error {
		var acc uint64
		for _, id := range ids {
			acc += id.Index(loc, e.m)
		}
		sink.Add(acc)
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("vhash.index_ns", indexNs)

	indices := make([]uint64, 0, len(ids))
	for _, id := range ids {
		indices = append(indices, id.Index(loc, e.m))
	}
	period := record.PeriodID(e.periods + 1)
	if err := e.units[0].StartPeriod(period, float64(e.volume())); err != nil {
		return err
	}
	sendNs, err := perOp(len(indices), func() error {
		for _, i := range indices {
			if err := e.chans[0].Send(dsrc.Report{Period: period, Index: i}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := e.units[0].EndPeriod(); err != nil {
		return err
	}
	rep.set("dsrc.send_ns", sendNs)

	scratch := bitmap.MustNew(e.m)
	setNs, err := perOp(len(indices), func() error {
		for _, i := range indices {
			scratch.AtomicSet(i)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("bitmap.atomic_set_ns", setNs)
	return nil
}

// channelStats sums the DSRC counters over the RSUs' channels.
func (e *edgeEnv) channelStats() dsrc.Stats {
	var total dsrc.Stats
	for _, ch := range e.chans {
		st := ch.Stats()
		total.ReportsSent += st.ReportsSent
		total.ReportsLost += st.ReportsLost
	}
	return total
}

// driveRecordCodec times MarshalBinary and Unmarshal on rec.
func driveRecordCodec(rep *report, rec *record.Record, label string) error {
	var blob []byte
	marshal, err := perCall(64, func() (err error) {
		blob, err = rec.MarshalBinary()
		return err
	})
	if err != nil {
		return err
	}
	unmarshal, err := perCall(64, func() error {
		_, err := record.Unmarshal(blob)
		return err
	})
	if err != nil {
		return err
	}
	rep.set("record.marshal_"+label+"_us", marshal/1e3)
	rep.set("record.unmarshal_"+label+"_us", unmarshal/1e3)
	return nil
}

// driveFrameEncode times encoding one upload batch into a frame.
func driveFrameEncode(rep *report, batch []*record.Record) error {
	var buf bytes.Buffer
	d, err := perCall(64, func() error {
		payload, err := transport.EncodeRecordBatch(batch)
		if err != nil {
			return err
		}
		buf.Reset()
		return transport.WriteFrame(&buf, transport.MsgUploadBatch, payload)
	})
	if err != nil {
		return err
	}
	rep.set("transport.frame_encode_us", d/1e3)
	return nil
}

// driveWALAppend times a 4 KiB Append under SyncAlways on a scratch log
// beside the workload's own, so it meets the same filesystem.
func driveWALAppend(rep *report, dir string) (err error) {
	log, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		return err
	}
	defer func() {
		if cerr := log.Close(); err == nil {
			err = cerr
		}
	}()
	payload := make([]byte, 4<<10)
	d, err := perCall(64, func() error { return log.Append(payload) })
	if err != nil {
		return err
	}
	rep.set("wal.append_sync_us", d/1e3)
	return nil
}

// driveAndOnes times the count-only AND join over t of the workload's
// bitmaps and reports the bytes it streams per nanosecond.
func driveAndOnes(rep *report, recs []*record.Record) error {
	bms := make([]*bitmap.Bitmap, len(recs))
	bytesRead := 0
	for i, rec := range recs {
		bms[i] = rec.Bitmap
		bytesRead += rec.Size() / 8
	}
	ns, err := perCall(32, func() error {
		ones, _, err := bitmap.AndOnes(bms)
		sink.Add(uint64(ones))
		return err
	})
	if err != nil {
		return err
	}
	rep.set("bitmap.and_ones_bytes_per_ns", float64(bytesRead)/ns)
	return nil
}

// driveEstimators times core.EstimatePoint and EstimatePointToPoint over
// t periods of two of the workload's own locations.
func driveEstimators(rep *report, a, b []*record.Record, ts []int) error {
	for _, t := range ts {
		setA, err := record.NewSet(a[:t])
		if err != nil {
			return err
		}
		setB, err := record.NewSet(b[:t])
		if err != nil {
			return err
		}
		point, err := perCall(32, func() error {
			res, err := core.EstimatePoint(setA)
			if err == nil {
				sink.Add(uint64(res.Estimate))
			}
			return err
		})
		if err != nil {
			return err
		}
		p2p, err := perCall(32, func() error {
			res, err := core.EstimatePointToPoint(setA, setB, representativeBits)
			if err == nil {
				sink.Add(uint64(res.Estimate))
			}
			return err
		})
		if err != nil {
			return err
		}
		rep.set("core.point_est_t"+strconv.Itoa(t)+"_us", point/1e3)
		rep.set("core.p2p_est_t"+strconv.Itoa(t)+"_us", p2p/1e3)
	}
	return nil
}
