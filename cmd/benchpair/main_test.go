package main

import (
	"context"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestQuartilesMatchPython checks the quartiles against values computed
// by hand with Python's statistics.quantiles(xs, n=4), exclusive method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 20, 30, 40}, 12.5, 37.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 3, 7}, 1, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

func TestSignTest(t *testing.T) {
	for _, tc := range []struct {
		wins, losses int
		p            float64
	}{
		{10, 0, 1.0 / 1024},
		{9, 1, 11.0 / 1024},
		{5, 5, 638.0 / 1024},
		{0, 10, 1},
		{0, 0, 1},
	} {
		if p := signTestP(tc.wins, tc.losses); math.Abs(p-tc.p) > 1e-12 {
			t.Errorf("signTestP(%d, %d) = %v, want %v", tc.wins, tc.losses, p, tc.p)
		}
	}
}

// series returns n values from start in steps of step.
func series(start, step float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = start + float64(i)*step
	}
	return xs
}

// nudge adds d[i] to each value.
func nudge(xs []float64, d ...float64) []float64 {
	out := append([]float64(nil), xs...)
	for i := range out {
		out[i] += d[i]
	}
	return out
}

func TestVerdicts(t *testing.T) {
	higher := gate{Name: "primary_ops_per_s", Better: "higher", Bound: 0.25}
	lower := gate{Name: "setup_s", Better: "lower", Bound: 0.25}
	steady := series(100, 1, 10)                                   // IQR 5.5, 5 % of the median
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110} // IQR ~0.55 of the median
	for _, tc := range []struct {
		name           string
		g              gate
		parent, change []float64
		want           string
		wins, ties     int
	}{
		{"gain", higher, steady, series(120, 1, 10), verdictGain, 10, 0},
		{"regression", higher, steady, series(60, 1, 10), verdictRegression, 0, 0},
		{"regression, lower is better", lower, steady, series(140, 1, 10), verdictRegression, 0, 0},
		{"unresolved", higher, wide, nudge(wide, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), verdictUnresolved, 10, 0},
		{"wide but fully separated", higher, series(40, 5, 10), series(100, 1, 10), verdictGain, 10, 0},
		{"no change", higher, steady, nudge(steady, 1, -1, 1, -1, 1, -1, 1, -1, 1, -1), verdictNoChange, 5, 0},
		{"all ties", higher, steady, steady, verdictNoChange, 0, 10},
		{"9 wins and a tie", higher, steady, nudge(steady, 0, 30, 30, 30, 30, 30, 30, 30, 30, 30), verdictGain, 9, 1},
		{"8 wins and 2 ties", higher, steady, nudge(steady, 0, 0, 30, 30, 30, 30, 30, 30, 30, 30), verdictNoChange, 8, 2},
		{"wins within the parent's IQR", higher, steady, nudge(steady, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2), verdictNoChange, 10, 0},
	} {
		r := compare(tc.g.Name, tc.parent, tc.change, &tc.g)
		if r.Verdict != tc.want || r.Wins != tc.wins || r.Ties != tc.ties {
			t.Errorf("%s: verdict %q, %d wins, %d ties; want %q, %d, %d", tc.name, r.Verdict, r.Wins, r.Ties, tc.want, tc.wins, tc.ties)
		}
	}
}

func TestRowMetricHasNoVerdict(t *testing.T) {
	r := compare("upload_ack_p50_ms", series(1, 1, 10), series(2, 1, 10), nil)
	if r.Gated || r.Verdict != "" || r.DiffMed != 1 || r.Parent.Med != 5.5 || r.Change.Med != 6.5 {
		t.Errorf("row metric summary = %+v", r)
	}
}

func TestScheduleAlternatesWhoGoesFirst(t *testing.T) {
	got := schedule(3)
	want := []pairRun{{0, 0}, {0, 1}, {1, 1}, {1, 0}, {2, 0}, {2, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("schedule(3) = %v, want %v", got, want)
	}
}

// testdata/upload-durable.txt is the output of
// `ptmload -workload upload-durable` at seed 1.
func TestParseRun(t *testing.T) {
	out, err := os.ReadFile("testdata/upload-durable.txt")
	if err != nil {
		t.Fatal(err)
	}
	names, values, err := parseRun(string(out))
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{"setup_s", "upload_records_per_s", "upload_ack_p50_ms", "checkpoint_s", "recover_s"}
	if !reflect.DeepEqual(names, wantNames) {
		t.Errorf("row metrics %v, want %v", names, wantNames)
	}
	for name, want := range map[string]float64{
		"primary_ops_per_s":    8388.61162693344,
		"setup_s":              2.537875091, // the result line's value, not the rounded row
		"upload_records_per_s": 8388.6116,
		"upload_ack_p50_ms":    1.6006,
		"recover_s":            0.0680,
	} {
		if got := values[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	bad := strings.Replace(string(out), `"correct":true,"attempted":63,"failed":0`, `"correct":false,"attempted":63,"failed":1`, 1)
	if bad == string(out) {
		t.Fatal("fixture has no result line to corrupt")
	}
	if _, _, err := parseRun(bad); err == nil || !strings.Contains(err.Error(), "failed 1 checks") {
		t.Errorf("a correct:false run parsed: %v", err)
	}
	if _, _, err := parseRun(string(out[:strings.LastIndex(string(out), "{")])); err == nil {
		t.Error("output without a result line parsed")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{nil, {"HEAD", "query-mix", "0"}, {"HEAD", "query-mix", "ten"}, {"a", "b", "1", "c"}, {"a", "b", "1", "-2"}, {"a", "b", "1", "2", "e"}} {
		if err := run(context.Background(), args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%q) accepted", args)
		}
	}
}
