package main

// The metric tables (the single source BENCHMARK.json is checked
// against), the percentile helper, and the per-run report.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"ptm/internal/cli"
)

// Workload names, in the order the repeat tool runs them.
const (
	wEdgeStorm     = "edge-storm"
	wUploadDurable = "upload-durable"
	wQueryMix      = "query-mix"
	wRingMixed     = "ring-mixed"
)

var workloadNames = []string{wEdgeStorm, wUploadDurable, wQueryMix, wRingMixed}

type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median an end-to-end metric may
	// worsen by before a change counts as a regression.
	Bound float64
	// rows lists the workloads that measure the metric; no other workload
	// reports it.
	rows []string
}

// maxBound is the loosest regression bound a row metric may carry: the
// issue's 10 %. driverMaxBound is the benchmark contract's own cap for
// BENCHMARK.json, which this sandbox's noise forces the two driver metrics
// above 10 % towards; see driverEndToEnd.
const (
	maxBound       = 0.10
	driverMaxBound = 0.25
)

// endToEnd is the deployment-visible metric set, each metric with the
// workloads of its row.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.10, workloadNames},
	{"reports_per_s", "1/s", "higher", 0.10, []string{wEdgeStorm}},
	{"upload_records_per_s", "1/s", "higher", 0.10, []string{wUploadDurable, wRingMixed}},
	{"upload_ack_p50_ms", "ms", "lower", 0.10, []string{wUploadDurable, wQueryMix, wRingMixed}},
	{"checkpoint_s", "s", "lower", 0.10, []string{wUploadDurable}},
	{"recover_s", "s", "lower", 0.10, []string{wUploadDurable}},
	{"queries_per_s", "1/s", "higher", 0.10, []string{wQueryMix, wRingMixed}},
	{"point_p50_ms", "ms", "lower", 0.10, []string{wQueryMix, wRingMixed}},
	{"p2p_p50_ms", "ms", "lower", 0.10, []string{wQueryMix, wRingMixed}},
	{"p2p_cross_p50_ms", "ms", "lower", 0.10, []string{wRingMixed}},
}

func (m metricDef) appliesTo(workload string) bool {
	for _, w := range m.rows {
		if w == workload {
			return true
		}
	}
	return false
}

// rowOf returns the end-to-end metrics a workload reports.
func rowOf(workload string) []metricDef {
	var row []metricDef
	for _, d := range endToEnd {
		if d.appliesTo(workload) {
			row = append(row, d)
		}
	}
	return row
}

// primaryThroughput names, per workload, the row metric that is its
// primary loop's fixed operation count over the loop's wall time.
var primaryThroughput = map[string]string{
	wEdgeStorm:     "reports_per_s",
	wUploadDurable: "upload_records_per_s",
	wQueryMix:      "queries_per_s",
	wRingMixed:     "upload_records_per_s",
}

// driverEndToEnd is BENCHMARK.json's end_to_end list. The benchmark driver
// reads every listed metric from every workload's result line and gates
// each pairing, so the list can hold only what all four workloads measure:
// the set-up time, and the primary loop's throughput under a name that
// does not say whose operations they are. Both are row metrics of every
// workload (source); the other eight exist on one to three workloads and
// are gated by the repeat tool against BASELINE.json instead.
//
// Their bounds are the contract's cap, not the issue's 10 %: the driver
// refuses a benchmark whose ten-run quartile distance exceeds the bound,
// and on the sandbox primary_ops_per_s spread 7-16 % of its median within
// a set (BASELINE.json; a bare write+fsync loop drifts by a fifth over
// five minutes there). The row table above keeps 10 % and the repeat tool
// reports the pairings that miss it.
var driverEndToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "primary_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// source is the row metric a driver metric reads at workload.
func (m metricDef) source(workload string) string {
	if m.Name == "primary_ops_per_s" {
		return primaryThroughput[workload]
	}
	return m.Name
}

// perLayer is the traced run's metric set, layer.metric with layer = the
// package the number describes. A workload that does not exercise a
// layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "vhash.index_ns", Unit: "ns", Better: "lower"},
	{Name: "dsrc.send_ns", Unit: "ns", Better: "lower"},
	{Name: "dsrc.reports_sent", Unit: "count", Better: "higher"},
	{Name: "dsrc.reports_lost", Unit: "count", Better: "lower"},
	{Name: "rsu.rotate_us", Unit: "us", Better: "lower"},
	{Name: "rsu.reports_seen", Unit: "count", Better: "higher"},
	{Name: "rsu.reports_dropped", Unit: "count", Better: "lower"},
	{Name: "rsu.load_factor", Unit: "ratio", Better: "higher"},
	{Name: "bitmap.atomic_set_ns", Unit: "ns", Better: "lower"},
	{Name: "bitmap.and_ones_bytes_per_ns", Unit: "B/ns", Better: "higher"},
	{Name: "record.marshal_m15_us", Unit: "us", Better: "lower"},
	{Name: "record.unmarshal_m15_us", Unit: "us", Better: "lower"},
	{Name: "record.marshal_m20_us", Unit: "us", Better: "lower"},
	{Name: "record.unmarshal_m20_us", Unit: "us", Better: "lower"},
	{Name: "transport.upload_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.point_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.p2p_self_us", Unit: "us", Better: "lower"},
	{Name: "transport.frame_encode_us", Unit: "us", Better: "lower"},
	{Name: "transport.upload_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.point_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.p2p_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "central.ingest_us", Unit: "us", Better: "lower"},
	{Name: "central.ingest_self_us", Unit: "us", Better: "lower"},
	{Name: "central.point_self_us", Unit: "us", Better: "lower"},
	{Name: "central.p2p_self_us", Unit: "us", Better: "lower"},
	{Name: "central.estcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "central.estcache_invalidations", Unit: "count", Better: "lower"},
	{Name: "central.checkpoint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wal.appends", Unit: "count", Better: "lower"},
	{Name: "wal.syncs", Unit: "count", Better: "lower"},
	{Name: "wal.syncs_per_append", Unit: "ratio", Better: "lower"},
	{Name: "wal.rotations", Unit: "count", Better: "lower"},
	{Name: "wal.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "wal.bytes_per_user_byte_upload", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_user_byte_ckpt", Unit: "ratio", Better: "lower"},
	{Name: "store.ingest_us", Unit: "us", Better: "lower"},
	{Name: "store.ingest_p99_us", Unit: "us", Better: "lower"},
	{Name: "store.collect_hot_us", Unit: "us", Better: "lower"},
	{Name: "store.collect_cold_us", Unit: "us", Better: "lower"},
	{Name: "store.blockcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "store.blockcache_evictions", Unit: "count", Better: "lower"},
	{Name: "store.cold_records", Unit: "count", Better: "lower"},
	{Name: "store.segment_bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "core.point_est_t3_us", Unit: "us", Better: "lower"},
	{Name: "core.point_est_t4_us", Unit: "us", Better: "lower"},
	{Name: "core.point_est_t5_us", Unit: "us", Better: "lower"},
	{Name: "core.point_est_t10_us", Unit: "us", Better: "lower"},
	{Name: "core.p2p_est_t3_us", Unit: "us", Better: "lower"},
	{Name: "core.p2p_est_t4_us", Unit: "us", Better: "lower"},
	{Name: "core.p2p_est_t5_us", Unit: "us", Better: "lower"},
	{Name: "core.p2p_est_t10_us", Unit: "us", Better: "lower"},
	{Name: "core.words_folded_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.node_ingest_us", Unit: "us", Better: "lower"},
	{Name: "cluster.ship_round_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.ship_lag_segments", Unit: "count", Better: "lower"},
	{Name: "cluster.records_shipped", Unit: "count", Better: "higher"},
	{Name: "cluster.full_syncs", Unit: "count", Better: "lower"},
	{Name: "router.upload_self_us", Unit: "us", Better: "lower"},
	{Name: "router.fetch_bytes_per_cross_query", Unit: "bytes", Better: "lower"},
	{Name: "router.p2p_cross_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "router.upload_ack_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower"},
}

var errTooFewSamples = errors.New("fewer than ten samples beyond the requested percentile")

// percentile returns the q-quantile (0 < q < 1, nearest rank) of
// samples. It refuses a percentile with fewer than ten samples beyond it
// on its thinner side: a p99 of 300 values is three samples' opinion.
func percentile(samples []float64, q float64) (float64, error) {
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", q)
	}
	n := len(samples)
	if int(float64(n)*math.Min(q, 1-q)) < 10 {
		return 0, fmt.Errorf("%w: p%g of %d", errTooFewSamples, q*100, n)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[int(math.Ceil(q*float64(n)))-1], nil
}

// median is for repeated measurements of one quantity (three
// checkpoints, three recoveries), where every value counts and there is
// no tail.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// report is one run's outcome: metric values by name, the sample count
// behind each percentile, and the correctness tally.
type report struct {
	workload  string
	seed      uint64
	digest    string
	attempted int64
	failed    int64
	// timingFailed is the part of failed that compared two timings (the
	// blocking-path check) rather than an answer with its reference.
	timingFailed int64
	values       map[string]float64
	samples      map[string]int
	traceDir     string   // where a traced run writes its span file
	info         []string // free-form findings, printed but not gated
	failures     []string // first few correctness misses
}

func newReport(workload string, seed uint64) *report {
	return &report{workload: workload, seed: seed, values: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// setPercentile records a percentile metric and its sample count. A
// percentile the sample cannot support reads 0 and says why.
func (r *report) setPercentile(name string, samples []float64, q float64) {
	r.samples[name] = len(samples)
	v, err := percentile(samples, q)
	if err != nil {
		r.notef("%s not reported: %v", name, err)
		return
	}
	r.values[name] = v
}

func (r *report) notef(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

// check counts one verified answer; a miss is a failed operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// checkTiming is check for a comparison of two measured times. It counts
// like any other check; the tally is kept apart because such a comparison
// only means something under the benchmark's own load shape, which the
// smoke tests (four workloads at once) do not have.
func (r *report) checkTiming(ok bool, format string, args ...any) {
	if !ok {
		r.timingFailed++
	}
	r.check(ok, format, args...)
}

// checkExtra verifies an answer of a loop whose length is not fixed (a
// secondary loop runs until the primary finishes). A hit counts nothing,
// so ops_attempted is the same in every run of a seed; a miss is one
// attempted and failed operation.
func (r *report) checkExtra(ok bool, format string, args ...any) {
	if !ok {
		r.check(false, format, args...)
	}
}

// print writes the human-readable block: only the metrics of this
// workload's row (end to end) or the layers it exercises (traced).
func (r *report) print(w *cli.Printer, defs []metricDef) {
	w.Printf("workload %s seed %d digest %s\n", r.workload, r.seed, r.digest)
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			continue
		}
		w.Printf("metric %-36s %14.4f %s\n", d.Name, v, d.Unit)
		if n, ok := r.samples[d.Name]; ok {
			w.Printf("samples %-35s %14d\n", d.Name, n)
		}
	}
	for _, s := range r.info {
		w.Printf("info %s\n", s)
	}
	for _, s := range r.failures {
		w.Printf("FAILED %s\n", s)
	}
	w.Printf("ops_attempted %d\nops_failed %d\n", r.attempted, r.failed)
}
