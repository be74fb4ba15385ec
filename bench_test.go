package ptm

// One testing.B benchmark per table and figure of the paper's evaluation
// (Section VI), plus the ablation benches called out in DESIGN.md. Each
// benchmark regenerates its artifact (at one simulation run per iteration;
// cmd/ptmbench runs the full multi-run protocol) and reports the achieved
// mean relative error as a custom metric, so `go test -bench=.` doubles as
// a reproduction smoke test:
//
//	go test -bench=. -benchmem
//
// Paper-vs-measured numbers are recorded in EXPERIMENTS.md.

import (
	"testing"

	"ptm/internal/core"
	"ptm/internal/privacy"
	"ptm/internal/sim"
	"ptm/internal/stats"
	"ptm/internal/synth"
	"ptm/internal/trips"
)

// BenchmarkTable1SiouxFalls regenerates Table I: point-to-point persistent
// traffic error across eight Sioux Falls locations at t = 3, 5, 7, 10 plus
// the same-size baseline. One full table per iteration (1 run per cell).
func BenchmarkTable1SiouxFalls(b *testing.B) {
	tab := trips.NewSiouxFalls()
	var last *sim.Table1Result
	for i := 0; i < b.N; i++ {
		res, err := sim.RunTable1(tab, nil, nil, sim.Options{Runs: 1, Seed: uint64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	var sum, n float64
	for _, col := range last.Columns {
		for _, re := range col.RelErrByT {
			sum += re
			n++
		}
	}
	b.ReportMetric(sum/n, "mean-relerr")
	b.ReportMetric(last.Columns[len(last.Columns)-1].SameSizeRelErr, "same-size-relerr-L8")
}

// BenchmarkTable2Privacy regenerates Table II: the analytical
// noise-to-information sweep over (f, s).
func BenchmarkTable2Privacy(b *testing.B) {
	var grid []privacy.Profile
	for i := 0; i < b.N; i++ {
		var err error
		grid, err = privacy.Sweep(privacy.TableIIFs, privacy.TableIISs)
		if err != nil {
			b.Fatal(err)
		}
	}
	// ratio at (f=2, s=3): the paper's recommended operating point.
	for _, p := range grid {
		if p.F == 2 && p.S == 3 {
			b.ReportMetric(p.Ratio, "ratio-f2-s3")
		}
	}
}

// BenchmarkFig4PointError regenerates Figure 4: point persistent relative
// error versus actual volume, proposed vs benchmark, for t = 5 and t = 10.
func BenchmarkFig4PointError(b *testing.B) {
	for _, t := range []int{5, 10} {
		t := t
		b.Run(map[int]string{5: "t=5", 10: "t=10"}[t], func(b *testing.B) {
			var pts []sim.Fig4Point
			for i := 0; i < b.N; i++ {
				var err error
				pts, err = sim.RunFig4(t, sim.Options{Runs: 1, Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
			}
			var prop, bench float64
			for _, p := range pts {
				prop += p.Proposed
				bench += p.Benchmark
			}
			b.ReportMetric(prop/float64(len(pts)), "proposed-relerr")
			b.ReportMetric(bench/float64(len(pts)), "benchmark-relerr")
		})
	}
}

func scatterBench(b *testing.B, f float64) {
	b.Helper()
	for _, panel := range []string{"point", "p2p"} {
		panel := panel
		b.Run(panel, func(b *testing.B) {
			var pts []sim.ScatterPoint
			for i := 0; i < b.N; i++ {
				var err error
				opts := sim.Options{Runs: 1, Seed: uint64(i + 1), F: f}
				if panel == "point" {
					pts, err = sim.RunFigScatterPoint(5, opts)
				} else {
					pts, err = sim.RunFigScatterP2P(5, opts)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			var dev, n float64
			for _, p := range pts {
				if p.Actual >= 100 {
					re, err := stats.RelativeError(p.Estimated, p.Actual)
					if err != nil {
						b.Fatal(err)
					}
					dev += re
					n++
				}
			}
			b.ReportMetric(dev/n, "mean-relerr")
		})
	}
}

// BenchmarkFig5Scatter regenerates Figure 5 (f = 2): estimated vs actual
// persistent volume, point (left) and point-to-point (right).
func BenchmarkFig5Scatter(b *testing.B) { scatterBench(b, 2) }

// BenchmarkFig6Scatter regenerates Figure 6 (f = 3).
func BenchmarkFig6Scatter(b *testing.B) { scatterBench(b, 3) }

// --- ablations (DESIGN.md §5) ---

// BenchmarkAblationSplit compares the paper's contiguous-halves split of Π
// against an interleaved split and the k=3 generalization.
func BenchmarkAblationSplit(b *testing.B) {
	cases := []struct {
		name string
		est  func(w *synth.PointWorkload) (float64, error)
	}{
		{"halves", func(w *synth.PointWorkload) (float64, error) {
			r, err := core.EstimatePointOpts(w.Set, core.SplitHalves)
			if err != nil {
				return 0, err
			}
			return r.Estimate, nil
		}},
		{"interleaved", func(w *synth.PointWorkload) (float64, error) {
			r, err := core.EstimatePointOpts(w.Set, core.SplitInterleaved)
			if err != nil {
				return 0, err
			}
			return r.Estimate, nil
		}},
		{"kway3", func(w *synth.PointWorkload) (float64, error) {
			r, err := core.EstimatePointKWay(w.Set, 3)
			if err != nil {
				return 0, err
			}
			return r.Estimate, nil
		}},
	}
	for _, tc := range cases {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var sum float64
			for i := 0; i < b.N; i++ {
				g, err := synth.NewGenerator(uint64(i+1), 3)
				if err != nil {
					b.Fatal(err)
				}
				vols, err := g.Volumes(6, 2000, 10000)
				if err != nil {
					b.Fatal(err)
				}
				w, err := g.Point(synth.PointConfig{Loc: 1, Volumes: vols, NCommon: 500})
				if err != nil {
					b.Fatal(err)
				}
				est, err := tc.est(w)
				if err != nil {
					b.Fatal(err)
				}
				re, err := stats.RelativeError(est, 500)
				if err != nil {
					b.Fatal(err)
				}
				sum += re
			}
			b.ReportMetric(sum/float64(b.N), "mean-relerr")
		})
	}
}

// BenchmarkAblationPerPeriodSizing demonstrates a sensitivity this
// reproduction surfaced: Eq. (2) sizes records from the *historical
// average* volume, so one location's records share a size across periods.
// Re-sizing each period from its own volume leaves partial common-vehicle
// replicas correlated between the two subset joins, inflating V*_1 and
// biasing the point estimator upward by ~10-25%.
func BenchmarkAblationPerPeriodSizing(b *testing.B) {
	run := func(b *testing.B, perPeriod bool) {
		var sum float64
		for i := 0; i < b.N; i++ {
			g, err := synth.NewGenerator(uint64(i+1), 3)
			if err != nil {
				b.Fatal(err)
			}
			vols, err := g.Volumes(6, 2000, 10000)
			if err != nil {
				b.Fatal(err)
			}
			w, err := g.Point(synth.PointConfig{
				Loc: 1, Volumes: vols, NCommon: 500, PerPeriodSizing: perPeriod,
			})
			if err != nil {
				b.Fatal(err)
			}
			res, err := core.EstimatePoint(w.Set)
			if err != nil {
				b.Fatal(err)
			}
			sum += (res.Estimate - 500) / 500
		}
		b.ReportMetric(sum/float64(b.N), "signed-bias")
	}
	b.Run("historical-average", func(b *testing.B) { run(b, false) })
	b.Run("per-period", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationSecondLevel compares the paper's OR second-level join
// (Eq. 21) against the naive AND + linear-counting design it rejects in
// Section IV-A.
func BenchmarkAblationSecondLevel(b *testing.B) {
	run := func(b *testing.B, andJoin bool) {
		var sum float64
		for i := 0; i < b.N; i++ {
			g, err := synth.NewGenerator(uint64(i+1), 3)
			if err != nil {
				b.Fatal(err)
			}
			volsA, err := g.Volumes(5, 2000, 10000)
			if err != nil {
				b.Fatal(err)
			}
			volsB, err := g.Volumes(5, 2000, 10000)
			if err != nil {
				b.Fatal(err)
			}
			w, err := g.Pair(synth.PairConfig{LocA: 1, LocB: 2, VolumesA: volsA, VolumesB: volsB, NCommon: 500})
			if err != nil {
				b.Fatal(err)
			}
			var est float64
			if andJoin {
				est, err = core.EstimatePointToPointBaselineAND(w.SetA, w.SetB)
			} else {
				var res *core.PointToPointResult
				res, err = core.EstimatePointToPoint(w.SetA, w.SetB, 3)
				if err == nil {
					est = res.Estimate
				}
			}
			if err != nil {
				b.Fatal(err)
			}
			re, err := stats.RelativeError(est, 500)
			if err != nil {
				b.Fatal(err)
			}
			sum += re
		}
		b.ReportMetric(sum/float64(b.N), "mean-relerr")
	}
	b.Run("or-join", func(b *testing.B) { run(b, false) })
	b.Run("and-join", func(b *testing.B) { run(b, true) })
}

// BenchmarkConfidenceInterval measures the bootstrap interval cost at the
// default replicate count.
func BenchmarkConfidenceInterval(b *testing.B) {
	g, err := synth.NewGenerator(1, 3)
	if err != nil {
		b.Fatal(err)
	}
	w, err := g.Point(synth.PointConfig{Loc: 1, Volumes: []int{6000, 7000, 5500, 6500}, NCommon: 800})
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.EstimatePoint(w.Set)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PointConfidence(res, 0.95, 0, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
