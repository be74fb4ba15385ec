package dsrc

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"ptm/internal/stripe"
)

func TestNewChannelValidation(t *testing.T) {
	for _, cfg := range []Config{
		{BeaconLoss: -0.1}, {BeaconLoss: 1}, {ReportLoss: -1}, {ReportLoss: 1.5},
	} {
		if _, err := NewChannel(cfg); !errors.Is(err, ErrBadLoss) {
			t.Errorf("cfg %+v err = %v, want ErrBadLoss", cfg, err)
		}
	}
	if _, err := NewChannel(Config{}); err != nil {
		t.Errorf("lossless config rejected: %v", err)
	}
}

func TestBroadcastReachesAllSubscribers(t *testing.T) {
	c, err := NewChannel(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[int]int{}
	cancels := make([]func(), 3)
	for i := 0; i < 3; i++ {
		i := i
		cancels[i], err = c.Subscribe(func(b Beacon) {
			mu.Lock()
			got[i]++
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Broadcast(Beacon{Location: 1, M: 64, Period: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if got[i] != 1 {
			t.Errorf("subscriber %d got %d beacons", i, got[i])
		}
	}
	// Unsubscribed vehicles stop hearing beacons.
	cancels[0]()
	if err := c.Broadcast(Beacon{Location: 1, M: 64, Period: 1}); err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 2 {
		t.Errorf("after unsubscribe: got = %v", got)
	}
}

func TestSendRequiresSink(t *testing.T) {
	c, err := NewChannel(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(Report{}); !errors.Is(err, ErrNoUplink) {
		t.Errorf("err = %v, want ErrNoUplink", err)
	}
	var n int
	if err := c.AttachSink(func(Report, stripe.ID) { n++ }); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachSink(func(Report, stripe.ID) {}); err == nil {
		t.Error("second sink accepted")
	}
	if err := c.Send(Report{Index: 5}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("sink saw %d reports", n)
	}
}

func TestLossRates(t *testing.T) {
	c, err := NewChannel(Config{BeaconLoss: 0.5, ReportLoss: 0.25, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	if _, err := c.Subscribe(func(Beacon) { delivered++ }); err != nil {
		t.Fatal(err)
	}
	sunk := 0
	if err := c.AttachSink(func(Report, stripe.ID) { sunk++ }); err != nil {
		t.Fatal(err)
	}
	const n = 4000
	for i := 0; i < n; i++ {
		if err := c.Broadcast(Beacon{}); err != nil {
			t.Fatal(err)
		}
		if err := c.Send(Report{}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.BeaconsSent != n || st.ReportsSent != n {
		t.Fatalf("stats = %+v", st)
	}
	if frac := float64(st.BeaconsLost) / n; frac < 0.45 || frac > 0.55 {
		t.Errorf("beacon loss %.3f, want ~0.5", frac)
	}
	if frac := float64(st.ReportsLost) / n; frac < 0.20 || frac > 0.30 {
		t.Errorf("report loss %.3f, want ~0.25", frac)
	}
	if delivered != n-int(st.BeaconsLost) {
		t.Errorf("delivered %d, want %d", delivered, n-int(st.BeaconsLost))
	}
	if sunk != n-int(st.ReportsLost) {
		t.Errorf("sunk %d, want %d", sunk, n-int(st.ReportsLost))
	}
}

// TestSeededLossRepeats pins Config.Seed's promise: two channels with
// the same seed and the same subscriptions drop the same listeners'
// copies, beacon for beacon.
func TestSeededLossRepeats(t *testing.T) {
	pattern := func() []int {
		c, err := NewChannel(Config{BeaconLoss: 0.5, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]int, 64)
		for i := range got {
			if _, err := c.Subscribe(func(Beacon) { got[i]++ }); err != nil {
				t.Fatal(err)
			}
		}
		for b := 0; b < 4; b++ {
			if err := c.Broadcast(Beacon{}); err != nil {
				t.Fatal(err)
			}
		}
		return got
	}
	first, second := pattern(), pattern()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("listener %d received %d beacons, then %d under the same seed", i, first[i], second[i])
		}
	}
}

func TestClose(t *testing.T) {
	c, err := NewChannel(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Broadcast(Beacon{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Broadcast err = %v", err)
	}
	if err := c.Send(Report{}); !errors.Is(err, ErrClosed) {
		t.Errorf("Send err = %v", err)
	}
	if _, err := c.Subscribe(func(Beacon) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Subscribe err = %v", err)
	}
	if err := c.AttachSink(func(Report, stripe.ID) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("AttachSink err = %v", err)
	}
}

func TestConcurrentUse(t *testing.T) {
	c, err := NewChannel(Config{})
	if err != nil {
		t.Fatal(err)
	}
	var count sync.Map
	for i := 0; i < 8; i++ {
		if _, err := c.Subscribe(func(b Beacon) {
			v, _ := count.LoadOrStore(b.Period, new(sync.Mutex))
			_ = v
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.AttachSink(func(Report, stripe.ID) {}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				_ = c.Broadcast(Beacon{Period: 1})
				_ = c.Send(Report{})
			}
		}()
	}
	wg.Wait() // must not race (run with -race)
}

func TestAnonymousMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seen := map[MAC]bool{}
	for i := 0; i < 1000; i++ {
		m := NewAnonymousMAC(rng)
		if m[0]&0x01 != 0 {
			t.Fatalf("multicast bit set: %v", m)
		}
		if m[0]&0x02 == 0 {
			t.Fatalf("not locally administered: %v", m)
		}
		seen[m] = true
	}
	// 1000 draws from 2^46 space: collisions vanishingly unlikely.
	if len(seen) < 999 {
		t.Errorf("only %d distinct MACs in 1000 draws", len(seen))
	}
	if NewAnonymousMAC(rng).String() == "" {
		t.Error("empty String()")
	}
}
