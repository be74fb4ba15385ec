package dsrc

import (
	"sync"
	"sync/atomic"
	"testing"

	"ptm/internal/stripe"
)

// TestConcurrentSendFanIn: the lossless Send path is lock-free; a storm
// of concurrent senders — more of them than the sent counter has stripes —
// must deliver every report exactly once, hand the sink a valid stripe,
// and keep the counters exact.
func TestConcurrentSendFanIn(t *testing.T) {
	const (
		workers = stripe.Count + stripe.Count/2
		perW    = 2000
	)
	c, err := NewChannel(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var delivered, badStripe atomic.Uint64
	if err := c.AttachSink(func(_ Report, s stripe.ID) {
		delivered.Add(1)
		if s >= stripe.Count {
			badStripe.Add(1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := c.Send(Report{Period: 1, Index: uint64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := delivered.Load(); got != workers*perW {
		t.Errorf("delivered %d reports, want %d", got, workers*perW)
	}
	if n := badStripe.Load(); n != 0 {
		t.Errorf("%d reports reached the sink with a stripe of %d or more", n, stripe.Count)
	}
	st := c.Stats()
	if st.ReportsSent != workers*perW || st.ReportsLost != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestConcurrentSendWithLoss: the lossy path serializes only the RNG
// draw; counters must still balance exactly under concurrency.
func TestConcurrentSendWithLoss(t *testing.T) {
	const (
		workers = 4
		perW    = 2000
	)
	c, err := NewChannel(Config{ReportLoss: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var delivered atomic.Uint64
	if err := c.AttachSink(func(Report, stripe.ID) { delivered.Add(1) }); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				if err := c.Send(Report{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.ReportsSent != workers*perW {
		t.Errorf("sent = %d, want %d", st.ReportsSent, workers*perW)
	}
	if st.ReportsLost+delivered.Load() != st.ReportsSent {
		t.Errorf("lost %d + delivered %d != sent %d",
			st.ReportsLost, delivered.Load(), st.ReportsSent)
	}
	if st.ReportsLost == 0 {
		t.Error("no losses at 30% loss rate")
	}
}
