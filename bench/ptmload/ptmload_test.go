package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smoke returns a configuration small enough that all four workloads,
// traced and untraced, fit a tier-1 test run. The shapes are the
// benchmark's; only the volumes shrink.
func smoke(t *testing.T, workload string, traced bool) config {
	t.Helper()
	c := config{workload: workload, seed: 11, trace: traced, dir: t.TempDir()}
	switch workload {
	case wEdgeStorm:
		c.seconds, c.scale = 4, 1.0/128
	case wUploadDurable:
		c.seconds, c.scale = 0.1, 1
	case wQueryMix:
		c.seconds, c.scale = 0.6, 1.0/16
	case wRingMixed:
		c.seconds, c.scale = 0.4, 0.05 // 8 preloaded periods: every one costs 3 fsynced batches
	}
	if traced {
		c.seconds *= 2 // a traced pass runs half the list
	}
	return c
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	return line
}

// Every workload prints each metric of its row with its unit, no metric
// of another row, ops_failed 0, and a result line with the driver's
// metrics, each equal to the row metric it is read from.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			var out bytes.Buffer
			if err := runOne(smoke(t, w, false), &out); err != nil {
				t.Fatalf("%v\n%s", err, out.String())
			}
			text := out.String()
			for _, d := range endToEnd {
				printed := false
				for _, l := range strings.Split(text, "\n") {
					f := strings.Fields(l)
					if len(f) == 4 && f[0] == "metric" && f[1] == d.Name {
						printed = f[3] == d.Unit
					}
				}
				if printed != d.appliesTo(w) {
					t.Errorf("metric %s: printed with unit %s = %v, in this workload's row = %v", d.Name, d.Unit, printed, d.appliesTo(w))
				}
			}
			if !strings.Contains(text, "\nops_failed 0\n") {
				t.Errorf("no ops_failed 0 line:\n%s", text)
			}
			line := lastLine(t, text)
			if !line.Correct || line.Failed != 0 || line.Attempted < 1 || len(line.Metrics) != len(driverEndToEnd) {
				t.Errorf("result line %+v", line)
			}
			for _, d := range driverEndToEnd {
				m := line.Metrics[d.Name]
				printed := fmt.Sprintf("metric %-36s %14.4f %s\n", d.source(w), m.Value, d.Unit)
				if m.Value <= 0 || m.Unit != d.Unit || !strings.Contains(text, printed) {
					t.Errorf("result line metric %s = %+v, not the printed %s", d.Name, m, d.source(w))
				}
			}
		})
	}
}

// tracedLayers names, per workload, one metric of every layer the
// workload exercises; a traced run must report each above zero.
var tracedLayers = map[string][]string{
	wEdgeStorm:     {"vhash.index_ns", "dsrc.send_ns", "dsrc.reports_sent", "rsu.rotate_us", "rsu.reports_seen", "bitmap.atomic_set_ns"},
	wUploadDurable: {"record.marshal_m15_us", "transport.upload_self_us", "transport.frame_encode_us", "central.ingest_self_us", "central.checkpoint_bytes", "wal.appends", "wal.append_sync_us", "store.ingest_us"},
	wQueryMix:      {"bitmap.and_ones_bytes_per_ns", "transport.point_self_us", "central.p2p_self_us", "central.estcache_hit_ratio", "store.collect_hot_us", "store.collect_cold_us", "core.p2p_est_t5_us", "core.words_folded_per_query"},
	wRingMixed:     {"cluster.node_ingest_us", "cluster.ship_round_ms", "cluster.records_shipped", "router.upload_self_us", "router.fetch_bytes_per_cross_query", "core.point_est_t4_us", "wal.appends"},
}

// exactCounts are the count metrics that must repeat exactly for one
// seed, whatever the timing of the run.
var exactCounts = []string{"wal.appends", "rsu.reports_seen", "dsrc.reports_sent", "core.words_folded_per_query", "store.cold_records"}

// A traced run reports its layers, writes the span file, and — run twice
// on one seed — repeats its digest and every exact count.
func TestTracedRunsRepeat(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			var reps [2]*report
			for i := range reps {
				c := smoke(t, w, true)
				rep, line, err := measure(c)
				if err != nil {
					t.Fatal(err)
				}
				// Four workloads share two CPUs here, so the traced and the
				// untraced median may differ by more than the blocking-path
				// tolerance; TestBlockingPathCheck covers that comparison.
				// Every answer must still match its reference.
				if rep.failed != rep.timingFailed {
					t.Fatalf("%d failed checks: %v", rep.failed, rep.failures)
				}
				if len(line.Metrics) != len(perLayer) {
					t.Errorf("result line has %d metrics, want %d", len(line.Metrics), len(perLayer))
				}
				if _, ok := rep.values["trace_overhead_pct"]; !ok {
					t.Error("no trace_overhead_pct")
				}
				spans, err := os.ReadFile(filepath.Join(c.dir, w+".trace.jsonl"))
				if err != nil || !bytes.Contains(spans, []byte(`"start_ns"`)) {
					t.Errorf("span file: %v, %d bytes", err, len(spans))
				}
				reps[i] = rep
			}
			for _, name := range tracedLayers[w] {
				if reps[0].values[name] <= 0 {
					t.Errorf("%s = %v, want a measurement", name, reps[0].values[name])
				}
			}
			if reps[0].digest != reps[1].digest {
				t.Errorf("same seed, digests %s and %s", reps[0].digest, reps[1].digest)
			}
			for _, name := range exactCounts {
				if a, b := reps[0].values[name], reps[1].values[name]; a != b {
					t.Errorf("%s: %v then %v on the same seed", name, a, b)
				}
			}
			// ring-mixed's query loop runs for as long as the uploads
			// take; its answers are verified as extras, so the count of
			// attempted operations is fixed there too.
			if reps[0].attempted != reps[1].attempted {
				t.Errorf("ops_attempted %d then %d on the same seed", reps[0].attempted, reps[1].attempted)
			}
		})
	}
}

// A different seed gives different inputs.
func TestSeedChangesDigest(t *testing.T) {
	digests := func(seed uint64) map[string]string {
		out := map[string]string{}
		gen := func(w string, digest func(c *config) (digest, error)) {
			c := smoke(t, w, false)
			c.seed = seed
			d, err := digest(&c)
			if err != nil {
				t.Fatal(err)
			}
			out[w] = d.String()
		}
		gen(wEdgeStorm, func(c *config) (digest, error) {
			e, err := buildEdge(c)
			if err != nil {
				return digest{}, err
			}
			e.close()
			return e.digest, nil
		})
		gen(wUploadDurable, func(c *config) (digest, error) {
			in, err := genUpload(c)
			if err != nil {
				return digest{}, err
			}
			return in.digest, nil
		})
		gen(wQueryMix, func(c *config) (digest, error) {
			in, err := genQuery(c)
			if err != nil {
				return digest{}, err
			}
			return in.digest, nil
		})
		gen(wRingMixed, func(c *config) (digest, error) {
			in, err := genRing(c)
			if err != nil {
				return digest{}, err
			}
			return in.digest, nil
		})
		return out
	}
	a, b, c := digests(11), digests(11), digests(12)
	for _, w := range workloadNames {
		if a[w] != b[w] {
			t.Errorf("%s: seed 11 gave digests %s and %s", w, a[w], b[w])
		}
		if a[w] == c[w] {
			t.Errorf("%s: seeds 11 and 12 gave the same digest %s", w, a[w])
		}
	}
}

// The decorators must not change an answer: a decorated and an
// undecorated stack, fed the same records, agree bit for bit on every
// catalogue entry.
func TestDecoratedServerAnswersIdentically(t *testing.T) {
	c := smoke(t, wQueryMix, false)
	in, err := genQuery(&c)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := openQuery(&c, in, "plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.close()
	traced, err := openQuery(&c, in, "traced", newTracer(1<<12))
	if err != nil {
		t.Fatal(err)
	}
	defer traced.close()
	for k, q := range plain.cat[:256] {
		a, errA := plain.ask(q)
		b, errB := traced.ask(q)
		if errA != nil || errB != nil || !sameBits(a, b) {
			t.Fatalf("entry %d (%+v): undecorated %v (%v), decorated %v (%v)", k, q, a, errA, b, errB)
		}
	}
	if len(traced.stack.opts.tr.snapshot()) == 0 {
		t.Error("the decorated stack recorded no spans")
	}
}

// A wrong reference must fail the run: every workload compares against
// it, and the command exits non-zero.
func TestCorruptReferenceFailsTheRun(t *testing.T) {
	for _, w := range workloadNames {
		t.Run(w, func(t *testing.T) {
			t.Parallel()
			c := smoke(t, w, false)
			c.corruptReference = true
			var out bytes.Buffer
			err := runOne(c, &out)
			if !errors.Is(err, errIncorrect) {
				t.Fatalf("err = %v, want errIncorrect", err)
			}
			if line := lastLine(t, out.String()); line.Correct || line.Failed == 0 {
				t.Errorf("result line %+v after a corrupted reference", line)
			}
		})
	}
}

func TestCommandLine(t *testing.T) {
	var out, errw bytes.Buffer
	dir := t.TempDir()
	// The driver's spelling: double dashes, --trace with a value.
	args := []string{"--workload", wEdgeStorm, "--seed", "3", "--seconds", "4", "--trace", "0", "-scale", "0.01", "-dir", dir}
	if code := run(args, &out, &errw); code != 0 {
		t.Fatalf("exit %d: %s", code, errw.String())
	}
	if line := lastLine(t, out.String()); !line.Correct {
		t.Errorf("result line %+v", line)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Errorf("scratch directory not cleaned: %v %v", entries, err)
	}
	for _, bad := range [][]string{{"-workload", "nope", "-dir", dir}, {"-workload", wEdgeStorm, "-trace", "2"}, {"-repeat", "1x1"}} {
		if code := run(bad, &out, &errw); code == 0 {
			t.Errorf("args %v exited 0", bad)
		}
	}
}

// The blocking-path check holds the traced path against the untraced
// median: within 15 % passes, beyond fails the run, and a median band of
// fewer than ten requests is printed but not judged.
func TestBlockingPathCheck(t *testing.T) {
	// n requests of 1000 us each: a client span whose child covers 800 us.
	synthetic := func(n int) spanTimes {
		var spans []span
		for i := 0; i < n; i++ {
			at := int64(i) * 2_000_000
			root := int32(len(spans))
			spans = append(spans,
				span{name: "client.Op", start: at, end: at + 1_000_000, parent: noSpan, req: int64(i)},
				span{name: "central.Op", start: at + 100_000, end: at + 900_000, parent: root, req: noReq})
		}
		return analyze(spans)
	}
	untraced := func(ms float64) []float64 {
		xs := make([]float64, 40)
		for i := range xs {
			xs[i] = ms
		}
		return xs
	}
	for _, tc := range []struct {
		name              string
		requests          int
		untracedMs        float64
		attempted, failed int64
	}{
		{"agrees", 1000, 1.05, 1, 0},
		{"30% off", 1000, 1.30, 1, 1},
		{"too few requests to judge", 100, 1.30, 0, 0},
	} {
		rep := newReport(wUploadDurable, 1)
		if err := blockingPath(rep, synthetic(tc.requests), "client.Op", "upload_ack_p50_ms", untraced(tc.untracedMs)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.attempted != tc.attempted || rep.failed != tc.failed {
			t.Errorf("%s: attempted %d failed %d, want %d and %d (%v)", tc.name, rep.attempted, rep.failed, tc.attempted, tc.failed, rep.info)
		}
		if len(rep.info) != 1 || !strings.Contains(rep.info[0], "central 800 us + client 200 us = 1.000 ms") {
			t.Errorf("%s: path line %q", tc.name, rep.info)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.99); err != nil || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v", v, err)
	}
	if v, err := percentile(xs[:20], 0.50); err != nil || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v", v, err)
	}
	for _, tc := range []struct {
		n int
		q float64
	}{{999, 0.99}, {19, 0.50}, {99, 0.10}, {0, 0.5}} {
		if _, err := percentile(xs[:tc.n], tc.q); !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%g of %d samples: err = %v, want errTooFewSamples", tc.q*100, tc.n, err)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
}

// BENCHMARK.json is hand-written; the tables in metrics.go are what the
// code reports. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, referenceSeconds %d", doc.RunSeconds, referenceSeconds)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v", i, w)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", d.Name, d.Bound, maxBound)
		}
	}
	same := func(kind string, got, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the tables", kind, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || (bounded && g.Bound != w.Bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, tables %+v", kind, i, g, w)
			}
			if bounded && (g.Bound <= 0 || g.Bound > driverMaxBound) {
				t.Errorf("%s: bound %v outside (0, %v]", g.Name, g.Bound, driverMaxBound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, driverEndToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}
