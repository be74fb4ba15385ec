// Command ptmreport turns a centrald record set into a human-readable
// traffic report: per-period volumes, the persistent core at every
// location (with a bootstrap confidence interval), sliding-window
// stability, and point-to-point persistent volumes between instrumented
// locations. The input is any store segment file: a centrald -save
// file, a WAL checkpoint, or a tiered store's cold segment.
//
//	ptmreport -snapshot records.seg [-s 3] [-window 3] [-level 0.95]
//
// The report answers the questions the paper motivates: how much of a
// location's traffic is a stable core, and how much persistent traffic
// each location pair contributes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"

	"ptm/internal/central"
	"ptm/internal/cli"
	"ptm/internal/core"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ptmreport:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("ptmreport", flag.ContinueOnError)
	var (
		snapshot = fs.String("snapshot", "", "centrald segment file: a -save file or WAL checkpoint (required)")
		s        = fs.Int("s", 3, "system-wide representative-bit count")
		window   = fs.Int("window", 0, "sliding-window size for the stability series (0 = off)")
		level    = fs.Float64("level", 0.95, "confidence level for persistent-core intervals")
		maxPairs = fs.Int("max-pairs", 10, "report at most this many location pairs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *snapshot == "" {
		return fmt.Errorf("missing -snapshot")
	}
	store, err := central.NewServer(*s)
	if err != nil {
		return err
	}
	if err := store.LoadFrom(*snapshot); err != nil {
		return err
	}

	st := store.Stats()
	p := cli.NewPrinter(out)
	p.Printf("PTM traffic report — %d locations, %d records (%s)\n\n", st.Locations, st.Records, *snapshot)
	if err := p.Err(); err != nil {
		return err
	}

	locs := store.Locations()
	for _, loc := range locs {
		if err := reportLocation(out, store, loc, *window, *level); err != nil {
			return err
		}
	}
	return reportPairs(out, store, locs, *maxPairs)
}

func reportLocation(out io.Writer, store *central.Server, loc vhash.LocationID, window int, level float64) error {
	periods := store.Periods(loc)
	rp := cli.NewPrinter(out)
	rp.Printf("location %d — %d periods\n", loc, len(periods))

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	tp := cli.NewPrinter(w)
	tp.Print("  volume")
	var meanVol float64
	for _, p := range periods {
		v, err := store.Volume(loc, p)
		if err != nil {
			return err
		}
		meanVol += v / float64(len(periods))
		tp.Printf("\tp%d: %.0f", p, v)
	}
	tp.Println()
	if err := tp.Err(); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}

	if len(periods) >= 2 {
		res, err := store.PointPersistent(loc, periods)
		switch {
		case err == nil:
			line := fmt.Sprintf("  persistent core: %.0f (%.0f%% of mean volume)", res.Estimate, 100*res.Estimate/meanVol)
			if iv, err := core.PointConfidence(res, level, 0, 1); err == nil {
				line += fmt.Sprintf("  [%d%% CI: %.0f, %.0f]", int(level*100), iv.Lo, iv.Hi)
			}
			rp.Println(line)
		default:
			rp.Printf("  persistent core: unavailable (%v)\n", err)
		}
	}
	if window >= 2 && len(periods) >= window {
		wins, err := store.PointPersistentSliding(loc, window)
		if err != nil {
			return err
		}
		rp.Printf("  stability (window %d):", window)
		for _, win := range wins {
			rp.Printf(" %.0f", win.Estimate)
		}
		rp.Println()
	}
	rp.Println()
	return rp.Err()
}

func reportPairs(out io.Writer, store *central.Server, locs []vhash.LocationID, maxPairs int) error {
	type pairEst struct {
		a, b vhash.LocationID
		est  float64
	}
	var pairs []pairEst
	for i := 0; i < len(locs); i++ {
		for j := i + 1; j < len(locs); j++ {
			pa, pb := store.Periods(locs[i]), store.Periods(locs[j])
			common := intersectPeriods(pa, pb)
			if len(common) < 2 {
				continue
			}
			res, err := store.PointToPointPersistent(locs[i], locs[j], common)
			if err != nil {
				continue // saturated or degenerate pairs are skipped
			}
			pairs = append(pairs, pairEst{a: locs[i], b: locs[j], est: res.Estimate})
		}
	}
	if len(pairs) == 0 {
		return nil
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].est > pairs[j].est })
	if len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	hp := cli.NewPrinter(out)
	hp.Println("top persistent location pairs:")
	if err := hp.Err(); err != nil {
		return err
	}
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	tp := cli.NewPrinter(w)
	for _, p := range pairs {
		tp.Printf("  %d <-> %d\t%.0f vehicles\n", p.a, p.b, p.est)
	}
	if err := tp.Err(); err != nil {
		return err
	}
	return w.Flush()
}

func intersectPeriods(a, b []record.PeriodID) []record.PeriodID {
	inA := make(map[record.PeriodID]bool, len(a))
	for _, p := range a {
		inA[p] = true
	}
	var out []record.PeriodID
	for _, p := range b {
		if inA[p] {
			out = append(out, p)
		}
	}
	return out
}
