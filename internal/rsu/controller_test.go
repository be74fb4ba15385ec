package rsu

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ptm/internal/dsrc"
	"ptm/internal/record"
)

// fakeClock is a deterministic TickClock: After registers a waiter and
// Advance fires the waiters whose deadlines have passed.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []fakeWaiter
}

type fakeWaiter struct {
	at time.Time
	ch chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) After(d time.Duration) <-chan time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	ch := make(chan time.Time, 1)
	c.waiters = append(c.waiters, fakeWaiter{at: c.now.Add(d), ch: ch})
	return ch
}

// Advance moves time forward and fires due waiters.
func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var keep []fakeWaiter
	var fire []fakeWaiter
	for _, w := range c.waiters {
		if !w.at.After(c.now) {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	c.waiters = keep
	now := c.now
	c.mu.Unlock()
	for _, w := range fire {
		w.ch <- now
	}
}

// BlockUntil polls until at least n waiters are registered.
func (c *fakeClock) BlockUntil(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		got := len(c.waiters)
		c.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("timed out waiting for clock waiters")
}

type controllerFixture struct {
	w     *world
	clock *fakeClock
	dir   string // the spool's directory
	spool *Spool
	ctl   *Controller

	mu       sync.Mutex
	uploads  []*record.Record
	sends    int           // send calls, delivered or not
	failures int           // batches to fail before one succeeds
	hang     chan struct{} // when set, send waits until it is closed
}

func newControllerFixture(t *testing.T, sched Schedule) *controllerFixture {
	t.Helper()
	f := &controllerFixture{w: newWorld(t, 9, dsrc.Config{}), clock: newFakeClock(), dir: t.TempDir()}
	spool, err := OpenSpool(f.dir)
	if err != nil {
		t.Fatal(err)
	}
	f.spool = spool
	t.Cleanup(func() {
		if err := f.spool.Close(); err != nil {
			t.Error(err)
		}
	})
	send := func(recs []*record.Record) (int, error) {
		f.mu.Lock()
		f.sends++
		hang := f.hang
		f.mu.Unlock()
		if hang != nil {
			<-hang
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.failures > 0 {
			f.failures--
			return 0, errors.New("backhaul down")
		}
		f.uploads = append(f.uploads, recs...)
		return len(recs), nil
	}
	expected := func(record.PeriodID) float64 { return 100 }
	ctl, err := NewController(f.w.rsu, sched, spool, send, expected, f.clock)
	if err != nil {
		t.Fatal(err)
	}
	f.ctl = ctl
	return f
}

func (f *controllerFixture) uploadCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.uploads)
}

func (f *controllerFixture) sendCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.sends
}

// attempted waits until delivery has reached send n times. Delivery runs
// on its own goroutine and folds a wake that arrives before it takes the
// previous one, so a test that counts attempts waits for each before
// firing the tick that wakes the next.
func (f *controllerFixture) attempted(t *testing.T, n int) {
	t.Helper()
	waitFor(t, func() bool { return f.sendCount() >= n })
}

// run starts the controller and returns its cancel and its result.
func (f *controllerFixture) run() (context.CancelFunc, <-chan error) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.ctl.Run(ctx) }()
	return cancel, done
}

// tick waits for the controller's next beacon wait and fires it.
func (f *controllerFixture) tick(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		f.clock.BlockUntil(t, 1)
		f.clock.Advance(time.Second)
	}
}

func TestNewControllerValidation(t *testing.T) {
	w := newWorld(t, 3, dsrc.Config{})
	spool, err := OpenSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	send := func(recs []*record.Record) (int, error) { return len(recs), nil }
	ex := func(record.PeriodID) float64 { return 1 }
	good := Schedule{PeriodLength: time.Hour, BeaconInterval: time.Second}

	if _, err := NewController(nil, good, spool, send, ex, nil); !errors.Is(err, ErrNilRSU) || err.Error() != "rsu: nil RSU" {
		t.Errorf("nil rsu err = %v, want %q", err, "rsu: nil RSU")
	}
	if _, err := NewController(w.rsu, good, nil, send, ex, nil); !errors.Is(err, ErrNilUpload) {
		t.Errorf("nil spool err = %v", err)
	}
	if _, err := NewController(w.rsu, good, spool, nil, ex, nil); !errors.Is(err, ErrNilUpload) {
		t.Errorf("nil send err = %v", err)
	}
	if _, err := NewController(w.rsu, good, spool, send, nil, nil); !errors.Is(err, ErrNilUpload) {
		t.Errorf("nil expected err = %v", err)
	}
	for _, sched := range []Schedule{
		{PeriodLength: time.Hour, BeaconInterval: 0},
		{PeriodLength: 0, BeaconInterval: time.Second},
		{PeriodLength: time.Second, BeaconInterval: time.Second},
		{PeriodLength: time.Second, BeaconInterval: time.Minute},
	} {
		if _, err := NewController(w.rsu, sched, spool, send, ex, nil); !errors.Is(err, ErrBadSchedule) {
			t.Errorf("sched %+v err = %v", sched, err)
		}
	}
}

func TestControllerPeriodsAndBeacons(t *testing.T) {
	sched := Schedule{
		PeriodLength:   10 * time.Second,
		BeaconInterval: time.Second,
		FirstPeriod:    1,
	}
	f := newControllerFixture(t, sched)
	cancel, done := f.run()

	// Drive two full periods: 10 beacon ticks each.
	f.tick(t, 20)
	// After 2 periods, two records should have been uploaded.
	waitFor(t, func() bool { return f.uploadCount() == 2 })

	cancel()
	f.tick(t, 1) // third period's first beacon wait
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	// The period active at cancellation was closed and uploaded too.
	if got := f.uploadCount(); got != 3 {
		t.Errorf("uploads = %d, want 3 (two full + one partial)", got)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, rec := range f.uploads {
		if rec.Period != record.PeriodID(i+1) {
			t.Errorf("upload %d period = %d", i, rec.Period)
		}
		if rec.Location != 9 {
			t.Errorf("upload %d location = %d", i, rec.Location)
		}
	}
	if f.ctl.Uploaded() != 3 || f.spool.Pending() != 0 || f.ctl.LastDrainErr() != nil {
		t.Errorf("uploaded=%d pending=%d last error %v", f.ctl.Uploaded(), f.spool.Pending(), f.ctl.LastDrainErr())
	}
}

// TestControllerUploadRetry: a record the backhaul refuses at period end
// stays spooled and goes out on a later beacon tick.
func TestControllerUploadRetry(t *testing.T) {
	sched := Schedule{
		PeriodLength:   5 * time.Second,
		BeaconInterval: time.Second,
		FirstPeriod:    1,
	}
	f := newControllerFixture(t, sched)
	f.failures = 2 // the period-end drain and the next tick's fail
	cancel, done := f.run()
	defer func() {
		cancel()
		f.tick(t, 1)
		<-done
	}()

	f.tick(t, 5) // period 1 ends; its drain fails
	waitFor(t, func() bool { return f.ctl.LastDrainErr() != nil })
	if f.uploadCount() != 0 || f.spool.Pending() != 1 || f.ctl.LastDrainErr() == nil {
		t.Fatalf("after a failed drain: uploads=%d pending=%d last error %v",
			f.uploadCount(), f.spool.Pending(), f.ctl.LastDrainErr())
	}
	f.tick(t, 1) // one more failure
	f.attempted(t, 2)
	f.tick(t, 1) // then delivery
	waitFor(t, func() bool { return f.ctl.Uploaded() == 1 })
	if f.ctl.Uploaded() != 1 || f.spool.Pending() != 0 || f.ctl.LastDrainErr() != nil {
		t.Errorf("uploaded=%d pending=%d last error %v", f.ctl.Uploaded(), f.spool.Pending(), f.ctl.LastDrainErr())
	}
}

// TestControllerSpoolsThroughOutage: no record is dropped however long
// the backhaul stays down. A record waits in the spool through an outage
// of many beacon ticks and is delivered once the backhaul returns; and
// if the controller stops during the outage, the record is still on
// disk for the next process to deliver.
func TestControllerSpoolsThroughOutage(t *testing.T) {
	sched := Schedule{
		PeriodLength:   5 * time.Second,
		BeaconInterval: time.Second,
		FirstPeriod:    1,
	}
	t.Run("delivered after the outage", func(t *testing.T) {
		long := sched
		long.PeriodLength = 30 * time.Second
		f := newControllerFixture(t, long)
		const outage = 12 // failed drains: the period end and 11 ticks
		f.failures = outage
		cancel, done := f.run()

		f.tick(t, 30)
		for i := 1; i < outage; i++ {
			f.attempted(t, i)
			f.tick(t, 1)
		}
		f.attempted(t, outage)
		if f.uploadCount() != 0 || f.spool.Pending() != 1 {
			t.Fatalf("during the outage: uploads=%d pending=%d, want 0 and 1", f.uploadCount(), f.spool.Pending())
		}
		f.tick(t, 1) // the backhaul is back
		waitFor(t, func() bool { return f.uploadCount() == 1 })

		cancel()
		f.tick(t, 1)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v", err)
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		if len(f.uploads) != 2 || f.uploads[0].Period != 1 || f.uploads[1].Period != 2 {
			t.Fatalf("delivered %d records, want periods 1 and 2", len(f.uploads))
		}
		if f.ctl.Uploaded() != 2 || f.spool.Pending() != 0 {
			t.Errorf("uploaded=%d pending=%d, want 2 and 0", f.ctl.Uploaded(), f.spool.Pending())
		}
	})
	t.Run("cancelled during the outage", func(t *testing.T) {
		f := newControllerFixture(t, sched)
		f.failures = 1 << 30
		cancel, done := f.run()

		f.tick(t, 3)
		cancel()
		f.tick(t, 1)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v", err)
		}
		if f.uploadCount() != 0 || f.ctl.LastDrainErr() == nil {
			t.Fatalf("uploads=%d last error %v, want 0 and the backhaul's", f.uploadCount(), f.ctl.LastDrainErr())
		}
		if err := f.spool.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenSpool(f.dir)
		if err != nil {
			t.Fatal(err)
		}
		f.spool = reopened // closed by the fixture's cleanup
		if reopened.Pending() != 1 {
			t.Fatalf("reopened spool holds %d records, want 1", reopened.Pending())
		}
		var got []*record.Record
		if _, err := reopened.Drain(func(recs []*record.Record) (int, error) {
			got = append(got, recs...)
			return len(recs), nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(got) != 1 || got[0].Period != 1 || got[0].Location != 9 {
			t.Fatalf("reopened spool delivered %d records", len(got))
		}
	})
}

// TestControllerHungBackhaul: a send that never returns holds up neither
// beacons nor period rotation, and the spool delivers every record in
// order once the send is released.
func TestControllerHungBackhaul(t *testing.T) {
	sched := Schedule{
		PeriodLength:   5 * time.Second,
		BeaconInterval: time.Second,
		FirstPeriod:    1,
	}
	f := newControllerFixture(t, sched)
	var (
		beaconMu sync.Mutex
		beacons  []record.PeriodID
	)
	stop, err := f.w.ch.Subscribe(func(b dsrc.Beacon) {
		beaconMu.Lock()
		beacons = append(beacons, b.Period)
		beaconMu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	release := make(chan struct{})
	f.hang = release
	cancel, done := f.run()

	f.tick(t, 5) // period 1 ends; its delivery hangs in send
	f.attempted(t, 1)
	f.tick(t, 15)            // three more periods, on schedule
	f.clock.BlockUntil(t, 1) // the loop has handled the last tick
	if got := f.w.rsu.Stats().Period; got != 5 {
		t.Fatalf("active period %d while send hangs, want 5", got)
	}
	if f.uploadCount() != 0 || f.spool.Pending() != 4 {
		t.Fatalf("while send hangs: uploads=%d pending=%d, want 0 and 4", f.uploadCount(), f.spool.Pending())
	}
	beaconMu.Lock()
	got := append([]record.PeriodID(nil), beacons...)
	beaconMu.Unlock()
	if len(got) != 20 {
		t.Fatalf("%d beacons in 20 ticks, want 20", len(got))
	}
	for i, p := range got {
		if want := record.PeriodID(i/5 + 1); p != want {
			t.Fatalf("beacon %d names period %d, want %d", i, p, want)
		}
	}

	// The hung drain sealed period 1 only; the ticks since left a wake
	// for periods 2 to 4. A closed release lets every later send through.
	close(release)
	waitFor(t, func() bool { return f.ctl.Uploaded() == 4 })

	cancel()
	f.tick(t, 1)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.uploads) != 5 {
		t.Fatalf("delivered %d records, want 5", len(f.uploads))
	}
	for i, rec := range f.uploads {
		if rec.Period != record.PeriodID(i+1) {
			t.Fatalf("upload %d is period %d, want %d", i, rec.Period, i+1)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatal("condition not reached")
}
