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
// uploads the record to the central server, retrying with backoff on
// transient backhaul failures.
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

// UploadFunc delivers one finished record to the central server.
type UploadFunc func(*record.Record) error

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
	// UploadRetries bounds upload attempts per record (total tries =
	// UploadRetries + 1); UploadBackoff separates attempts.
	UploadRetries int
	UploadBackoff time.Duration
}

// Controller drives one RSU.
type Controller struct {
	rsu      *RSU
	sched    Schedule
	upload   UploadFunc
	expected ExpectedVolumeFunc
	clock    TickClock

	mu       sync.Mutex
	uploaded int //ptm:guardedby mu
	dropped  int //ptm:guardedby mu
}

// Controller configuration errors.
var (
	ErrBadSchedule = errors.New("rsu: beacon interval must be positive and shorter than the period")
	ErrNilUpload   = errors.New("rsu: nil upload or expected-volume function")
)

// NewController validates the schedule and assembles a controller. clock
// may be nil for the real clock.
func NewController(r *RSU, sched Schedule, upload UploadFunc, expected ExpectedVolumeFunc, clock TickClock) (*Controller, error) {
	if r == nil {
		return nil, ErrNilDep
	}
	if upload == nil || expected == nil {
		return nil, ErrNilUpload
	}
	if sched.BeaconInterval <= 0 || sched.PeriodLength <= 0 || sched.BeaconInterval >= sched.PeriodLength {
		return nil, fmt.Errorf("%w: beacon %v, period %v", ErrBadSchedule, sched.BeaconInterval, sched.PeriodLength)
	}
	if sched.UploadRetries < 0 {
		return nil, fmt.Errorf("rsu: negative retries")
	}
	if clock == nil {
		clock = RealClock()
	}
	return &Controller{rsu: r, sched: sched, upload: upload, expected: expected, clock: clock}, nil
}

// Run executes the period loop until ctx is canceled. The period active
// at cancellation is closed and uploaded before returning, so no measured
// traffic is lost on shutdown. Returns ctx.Err() after a clean shutdown.
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
			}
		}
		rec, err := c.rsu.EndPeriod()
		if err != nil {
			return fmt.Errorf("rsu: ending period %d: %w", period, err)
		}
		c.uploadWithRetry(ctx, rec)
		if canceled {
			return ctx.Err()
		}
		period++
	}
}

// uploadWithRetry attempts the upload with bounded retries; a record that
// still fails is counted as dropped (the estimation pipeline tolerates
// missing periods — queries simply name the periods that exist).
func (c *Controller) uploadWithRetry(ctx context.Context, rec *record.Record) {
	for attempt := 0; ; attempt++ {
		err := c.upload(rec)
		if err == nil {
			c.mu.Lock()
			c.uploaded++
			c.mu.Unlock()
			return
		}
		if attempt >= c.sched.UploadRetries {
			c.mu.Lock()
			c.dropped++
			c.mu.Unlock()
			return
		}
		select {
		case <-ctx.Done():
			// Shutting down: one final immediate attempt happens on the
			// next loop iteration; do not wait out the backoff.
		case <-c.clock.After(c.sched.UploadBackoff):
		}
	}
}

// Uploaded and Dropped report delivery counters.
func (c *Controller) Uploaded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.uploaded
}

// Dropped reports records abandoned after exhausting retries.
func (c *Controller) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}
