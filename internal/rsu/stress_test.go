package rsu

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"ptm/internal/dsrc"
	"ptm/internal/record"
	"ptm/internal/stripe"
)

// TestConcurrentReportStorm: 8 goroutines hammer Channel.Send while
// Beacon and Stats run concurrently; every report for the active period
// must be either folded or counted dropped, the poller must never see
// ReportsSeen decrease (it is a sum of stripes that only grow), and the
// final record must contain exactly the union of the folded indices.
func TestConcurrentReportStorm(t *testing.T) {
	const (
		workers = 8
		perW    = 4000
	)
	w := newWorld(t, 11, dsrc.Config{})
	if err := w.rsu.StartPeriod(1, 4096); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := w.ch.Send(dsrc.Report{
					Period: 1,
					Index:  uint64(g*perW+i) * 0x9e3779b97f4a7c15,
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Observability runs concurrently with the storm.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for i := 0; i < 100; i++ {
			if err := w.rsu.Beacon(); err != nil {
				t.Errorf("beacon during storm: %v", err)
				return
			}
			seen := w.rsu.Stats().ReportsSeen
			if seen < last {
				t.Errorf("ReportsSeen went from %d to %d", last, seen)
				return
			}
			last = seen
		}
	}()
	wg.Wait()
	<-done

	st := w.rsu.Stats()
	if st.ReportsSeen != workers*perW || st.ReportsDrop != 0 {
		t.Fatalf("stats = %+v, want %d seen / 0 dropped", st, workers*perW)
	}
	if sent := w.ch.Stats().ReportsSent; sent != workers*perW {
		t.Fatalf("channel counted %d reports sent, want %d", sent, workers*perW)
	}
	rec, err := w.rsu.EndPeriod()
	if err != nil {
		t.Fatal(err)
	}
	want := rec.Bitmap.Clone()
	want.Reset()
	for i := 0; i < workers*perW; i++ {
		want.Set(uint64(i) * 0x9e3779b97f4a7c15)
	}
	if !rec.Bitmap.Equal(want) {
		t.Fatal("concurrent ingest lost or invented bits")
	}
}

// TestReportsRaceRotation: more senders than stripes race 200
// EndPeriod/StartPeriod rotations, two or three to a stripe, so every
// stripe's drain is exercised with several handlers entering and leaving
// it. Within a period every report carries a bit of its own (sender g's
// k-th report for the period sets bit g*lane+k), so "the record is the
// union of the reports counted seen" reads off the record: it has as many
// ones as the period counted, each a bit some sender did send for that
// period. Both are checked after the storm has stopped — a handler still
// writing after EndPeriod returned its record would have added a bit by
// then. Across the run, seen plus dropped accounts for every report.
func TestReportsRaceRotation(t *testing.T) {
	const (
		senders = stripe.Count + stripe.Count/2
		rounds  = 200
		lane    = 1 << 11
		volume  = senders * lane / 2 // sizes the bitmap at senders*lane bits or more
		minSeen = 32                 // per period, so that no rotation races an idle RSU
	)
	w := newWorld(t, 12, dsrc.Config{})
	var (
		live atomic.Uint32 // the period the rotator started last
		stop atomic.Bool
		wg   sync.WaitGroup
		sent [senders][rounds + 1]uint32 // [g][p]: reports g sent for period p
	)
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				p := live.Load()
				// A sender that has used up its lane idles.
				if k := sent[g][p]; p > 0 && k < lane {
					sent[g][p]++
					w.rsu.handleReport(dsrc.Report{Period: record.PeriodID(p), Index: uint64(g*lane) + uint64(k)}, stripe.ID(g))
				}
				runtime.Gosched()
			}
		}(g)
	}
	type closed struct {
		rec  *record.Record
		seen uint64
	}
	var periods []closed
	for p := record.PeriodID(1); p <= rounds; p++ {
		if err := w.rsu.StartPeriod(p, volume); err != nil {
			t.Fatal(err)
		}
		live.Store(uint32(p))
		for w.rsu.Stats().ReportsSeen < minSeen {
			runtime.Gosched()
		}
		rec, err := w.rsu.EndPeriod()
		if err != nil {
			t.Fatal(err)
		}
		if rec.Size() < senders*lane {
			t.Fatalf("bitmap of %d bits cannot give %d senders a lane of %d", rec.Size(), senders, lane)
		}
		periods = append(periods, closed{rec, w.rsu.Stats().ReportsSeen})
	}
	stop.Store(true)
	wg.Wait()
	if _, err := w.rsu.EndPeriod(); !errors.Is(err, ErrNoPeriod) {
		t.Errorf("EndPeriod after rotation loop = %v", err)
	}

	var seen, total uint64
	for _, c := range periods {
		seen += c.seen
		p := c.rec.Period
		if ones := uint64(c.rec.Bitmap.Ones()); ones != c.seen {
			t.Errorf("period %d: %d bits set, %d reports counted seen", p, ones, c.seen)
		}
		for g := 0; g < senders; g++ {
			for k := uint64(sent[g][p]); k < lane; k++ {
				if c.rec.Bitmap.Get(uint64(g*lane) + k) {
					t.Errorf("period %d: bit %d of sender %d's lane is set, but it sent only %d reports", p, k, g, sent[g][p])
					break
				}
			}
		}
	}
	for g := range sent {
		for _, n := range sent[g] {
			total += uint64(n)
		}
	}
	if dropped := w.rsu.Stats().ReportsDrop; seen+dropped != total {
		t.Errorf("%d seen + %d dropped != %d sent", seen, dropped, total)
	}
}

// TestDifferentialAtomicVsSequential: for a fixed report set, concurrent
// atomic ingest must produce a record bit-identical to folding the same
// reports sequentially through the plain Set path.
func TestDifferentialAtomicVsSequential(t *testing.T) {
	const n = 20000
	reports := make([]dsrc.Report, n)
	for i := range reports {
		reports[i] = dsrc.Report{Period: 1, Index: uint64(i) * 0x9e3779b97f4a7c15}
	}

	// Reference: the pre-rotation sequential path.
	ref, err := record.New(13, 1, 8192)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reports {
		ref.Bitmap.Set(rep.Index)
	}

	w := newWorld(t, 13, dsrc.Config{})
	if err := w.rsu.StartPeriod(1, 4096); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const workers = 8
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += workers {
				if err := w.ch.Send(reports[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	rec, err := w.rsu.EndPeriod()
	if err != nil {
		t.Fatal(err)
	}
	if rec.Size() != ref.Size() {
		t.Fatalf("sizes differ: %d vs %d", rec.Size(), ref.Size())
	}
	if !rec.Bitmap.Equal(ref.Bitmap) {
		t.Fatal("atomic ingest diverges from sequential reference")
	}
}
