package main

// The statistics of a pair study and the verdict rule.

import (
	"math"
	"sort"
)

// Verdicts, from the rule in judge.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictNoChange   = "no change"
)

// gainShare is the share of all pairs the change must win for a gain;
// ties count for neither side.
const gainShare = 0.9

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method). It is a copy of
// quartiles in bench/ptmload/repeat.go, which a main package cannot
// export; the two must agree, because the benchmark's repeatability
// check and this tool's verdicts describe the same spread.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based rank
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// signTestP is the one-sided sign test: the chance of at least wins
// successes in wins+losses fair coin flips. Ties are dropped, as the
// test prescribes.
func signTestP(wins, losses int) float64 {
	n := wins + losses
	p, c := 0.0, 1.0 // c walks C(n, k) from k = 0
	for k := 0; k <= n; k++ {
		if k >= wins {
			p += c
		}
		c = c * float64(n-k) / float64(k+1)
	}
	return p / math.Exp2(float64(n))
}

// side is one build's runs of one workload and metric.
type side struct {
	Med, Q1, Q3 float64
}

func describe(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{Med: median(xs), Q1: q1, Q3: q3}
}

// spread is the quartile distance as a share of the median.
func (s side) spread() float64 { return (s.Q3 - s.Q1) / math.Abs(s.Med) }

// gate is a BENCHMARK.json end-to-end metric: which direction is better
// and how far the change may worsen it.
type gate struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// beats reports whether a is strictly better than b.
func (g gate) beats(a, b float64) bool {
	if g.Better == "higher" {
		return a > b
	}
	return a < b
}

// worseBy is how much worse b is than a, as a share of a; negative when
// b is better.
func (g gate) worseBy(a, b float64) float64 {
	if g.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// row is one metric of one workload: both sides' medians and quartiles,
// the median paired difference (change minus parent) and, for a gated
// metric, the pair tally, the sign test and the verdict.
type row struct {
	Metric             string
	Parent, Change     side
	DiffMed            float64
	Gated              bool
	Wins, Losses, Ties int
	P                  float64
	Verdict            string
}

// compare summarises paired runs: parent[i] and change[i] ran as pair i.
// g is nil for a metric BENCHMARK.json does not gate.
func compare(metric string, parent, change []float64, g *gate) row {
	r := row{Metric: metric, Parent: describe(parent), Change: describe(change)}
	diffs := make([]float64, len(parent))
	for i := range parent {
		diffs[i] = change[i] - parent[i]
	}
	r.DiffMed = median(diffs)
	if g == nil {
		return r
	}
	r.Gated = true
	for i := range parent {
		switch {
		case g.beats(change[i], parent[i]):
			r.Wins++
		case g.beats(parent[i], change[i]):
			r.Losses++
		default:
			r.Ties++
		}
	}
	r.P = signTestP(r.Wins, r.Losses)
	r.Verdict = judge(*g, r, parent, change)
	return r
}

// judge applies the rule a performance claim is held to, in this order:
//   - regression: the change's median is worse than the parent's by more
//     than the metric's bound;
//   - unresolved: either side's quartile distance exceeds the bound as a
//     share of its median, unless every change run beats every parent
//     run;
//   - gain: the change wins at least 9 in 10 of all pairs and its median
//     is better than the parent's by more than the parent's quartile
//     distance;
//   - no change otherwise.
func judge(g gate, r row, parent, change []float64) string {
	if g.worseBy(r.Parent.Med, r.Change.Med) > g.Bound {
		return verdictRegression
	}
	if (r.Parent.spread() > g.Bound || r.Change.spread() > g.Bound) && !separated(g, parent, change) {
		return verdictUnresolved
	}
	if float64(r.Wins) >= gainShare*float64(len(parent)) &&
		g.beats(r.Change.Med, r.Parent.Med) && math.Abs(r.Change.Med-r.Parent.Med) > r.Parent.Q3-r.Parent.Q1 {
		return verdictGain
	}
	return verdictNoChange
}

// separated reports whether every change run beats every parent run.
func separated(g gate, parent, change []float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if !g.beats(c, p) {
				return false
			}
		}
	}
	return true
}
