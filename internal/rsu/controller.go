package rsu

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"ptm/internal/record"
)

// Controller runs an RSU on a wall-clock schedule: it starts a new
// measurement period every PeriodLength, broadcasts a beacon every
// BeaconInterval ("once per second" in the paper), and at period end
// spools the record and delivers the spool to the central server. A
// record the backhaul cannot take stays in the spool, on disk, and the
// controller tries again on later beacon ticks, so no record is dropped
// however long the outage lasts.
//
// Time is injected through the TickClock interface so deployments use the
// real clock and tests drive the schedule deterministically.

// TickClock abstracts time for the controller.
type TickClock interface {
	Now() time.Time
	// After behaves like time.After.
	After(d time.Duration) <-chan time.Time
}

// realClock implements TickClock with package time.
type realClock struct{}

var _ TickClock = realClock{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }

// RealClock returns the wall-clock TickClock.
func RealClock() TickClock { return realClock{} }

// ExpectedVolumeFunc returns the Eq. (2) historical expectation for a
// period; deployments back it with per-weekday/per-season history.
type ExpectedVolumeFunc func(record.PeriodID) float64

// Schedule configures the controller's timing.
type Schedule struct {
	// PeriodLength is the measurement period (e.g. 24h).
	PeriodLength time.Duration
	// BeaconInterval is the beacon cadence (e.g. 1s).
	BeaconInterval time.Duration
	// FirstPeriod numbers the first measurement period.
	FirstPeriod record.PeriodID
}

// Controller drives one RSU.
type Controller struct {
	rsu      *RSU
	sched    Schedule
	spool    *Spool
	send     func([]*record.Record) (int, error)
	expected ExpectedVolumeFunc
	clock    TickClock

	mu       sync.Mutex
	uploaded int   //ptm:guardedby mu (records the spool delivered)
	lastErr  error //ptm:guardedby mu (the latest delivery attempt's error)
}

// Controller configuration errors.
var (
	ErrBadSchedule = errors.New("rsu: beacon interval must be positive and shorter than the period")
	ErrNilUpload   = errors.New("rsu: nil spool, send or expected-volume function")
)

// NewController validates the schedule and assembles a controller.
// Finished records go through spool; send is the batch delivery that
// Spool.Drain takes (typically a transport.Client's UploadBatch). clock
// may be nil for the real clock.
func NewController(r *RSU, sched Schedule, spool *Spool, send func([]*record.Record) (int, error), expected ExpectedVolumeFunc, clock TickClock) (*Controller, error) {
	if r == nil {
		return nil, ErrNilDep
	}
	if spool == nil || send == nil || expected == nil {
		return nil, ErrNilUpload
	}
	if sched.BeaconInterval <= 0 || sched.PeriodLength <= 0 || sched.BeaconInterval >= sched.PeriodLength {
		return nil, fmt.Errorf("%w: beacon %v, period %v", ErrBadSchedule, sched.BeaconInterval, sched.PeriodLength)
	}
	if clock == nil {
		clock = RealClock()
	}
	return &Controller{rsu: r, sched: sched, spool: spool, send: send, expected: expected, clock: clock}, nil
}

// Run executes the period loop until ctx is canceled. Each ended period
// is spooled and then delivered in one Drain; while records remain
// spooled, every beacon tick drains again. The period active at
// cancellation is closed, spooled and drained once more before
// returning, so no measured traffic is lost on shutdown: what the
// backhaul did not take is in the spool for the next run. Returns
// ctx.Err() after a clean shutdown, or the error of a record that could
// not be spooled.
func (c *Controller) Run(ctx context.Context) error {
	period := c.sched.FirstPeriod
	for {
		if err := c.rsu.StartPeriod(period, c.expected(period)); err != nil {
			return fmt.Errorf("rsu: starting period %d: %w", period, err)
		}
		deadline := c.clock.Now().Add(c.sched.PeriodLength)
		canceled := false
	beaconLoop:
		for c.clock.Now().Before(deadline) {
			select {
			case <-ctx.Done():
				canceled = true
				break beaconLoop
			case <-c.clock.After(c.sched.BeaconInterval):
				if err := c.rsu.Beacon(); err != nil {
					return fmt.Errorf("rsu: beaconing period %d: %w", period, err)
				}
				if c.spool.Pending() > 0 {
					c.drain()
				}
			}
		}
		rec, err := c.rsu.EndPeriod()
		if err != nil {
			return fmt.Errorf("rsu: ending period %d: %w", period, err)
		}
		if err := c.spool.Enqueue(rec); err != nil {
			return fmt.Errorf("rsu: spooling period %d: %w", period, err)
		}
		c.drain()
		if canceled {
			return ctx.Err()
		}
		period++
	}
}

// drain makes one delivery attempt. A failed attempt leaves its records
// in the spool for the next one, so its error is kept, not returned.
func (c *Controller) drain() {
	n, err := c.spool.Drain(c.send)
	c.mu.Lock()
	c.uploaded += n
	c.lastErr = err
	c.mu.Unlock()
}

// Uploaded reports how many records the spool has delivered.
func (c *Controller) Uploaded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uploaded
}

// LastDrainErr returns the latest delivery attempt's error, nil once
// one succeeds. A non-nil error means records are waiting in the
// spool, not that any were lost.
func (c *Controller) LastDrainErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}
