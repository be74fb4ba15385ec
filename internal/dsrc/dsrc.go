// Package dsrc simulates the vehicle-to-infrastructure wireless exchange of
// Section II (DSRC / IEEE 802.11p in the paper): RSUs broadcast signed
// beacons at preset intervals; vehicles in range respond with a single
// index value. The channel model supports probabilistic loss so the rest
// of the stack can be exercised under imperfect delivery, and every
// vehicle report carries a fresh one-time MAC address (the SpoofMAC model
// of Section II-B), so the link layer leaks no stable identifier.
package dsrc

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"ptm/internal/record"
	"ptm/internal/stripe"
	"ptm/internal/vhash"
)

// Beacon is the RSU's periodic broadcast (Section II-D): the location, the
// current bitmap size m, the measurement period, the RSU's certificate,
// and a signature over the mutable fields.
type Beacon struct {
	Location vhash.LocationID
	M        int
	Period   record.PeriodID
	CertDER  []byte
	Sig      []byte
}

// MAC is a 48-bit link-layer address. Vehicles draw a fresh one per report.
type MAC [6]byte

// String renders the address in colon-hex.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Report is a vehicle's response to a beacon: nothing but a one-time MAC
// and the bit index h_v. No vehicle identity is present by construction.
type Report struct {
	SrcMAC MAC
	Period record.PeriodID
	Index  uint64
}

// Config tunes the channel model.
type Config struct {
	// BeaconLoss and ReportLoss are independent per-message loss
	// probabilities in [0, 1).
	BeaconLoss, ReportLoss float64
	// Seed makes loss decisions reproducible.
	Seed int64
}

// Errors.
var (
	ErrBadLoss  = errors.New("dsrc: loss probability outside [0, 1)")
	ErrNoUplink = errors.New("dsrc: channel has no report sink attached")
	ErrClosed   = errors.New("dsrc: channel closed")
)

// Channel is one RSU's radio neighborhood. Vehicles subscribe while in
// range; the RSU broadcasts beacons into it and consumes reports from it.
// All delivery is synchronous; loss is the only impairment modeled, since
// the measurement protocol is a stateless request/response whose timing
// does not affect the estimators.
//
// Send is the high-fan-in path (every passing vehicle at every beacon)
// and is lock-free when ReportLoss is zero. It writes no cache line that
// another sender writes: the words it only reads (cfg, sink) come first
// in the struct, a line or more from anything written, and its one
// counter is striped per P. Lossy channels take the mutex only for the
// RNG draw.
type Channel struct {
	cfg    Config // immutable after NewChannel
	closed atomic.Bool
	// sink is RCU-published: attach/detach store it under mu; the
	// lock-free Send path loads it and must not retain the pointer
	// across blocking (machine-checked by the rcu lint rule).
	//ptm:rcu mu
	sink atomic.Pointer[func(Report, stripe.ID)]
	_    [88]byte // to 128: every written word below is a line or more away

	mu        sync.Mutex
	rng       *rand.Rand           //ptm:guardedby mu
	nextSub   int                  //ptm:guardedby mu
	listeners map[int]func(Beacon) //ptm:guardedby mu

	beaconsSent, beaconsLost atomic.Uint64
	reportsLost              atomic.Uint64
	_                        [72]byte // to 256: reportsSent starts on a cell boundary

	reportsSent stripe.Cells
}

// NewChannel creates a channel with the given impairment model.
func NewChannel(cfg Config) (*Channel, error) {
	if cfg.BeaconLoss < 0 || cfg.BeaconLoss >= 1 {
		return nil, fmt.Errorf("%w: beacon %v", ErrBadLoss, cfg.BeaconLoss)
	}
	if cfg.ReportLoss < 0 || cfg.ReportLoss >= 1 {
		return nil, fmt.Errorf("%w: report %v", ErrBadLoss, cfg.ReportLoss)
	}
	return &Channel{
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		cfg:       cfg,
		listeners: make(map[int]func(Beacon)),
	}, nil
}

// Subscribe registers a beacon listener (a vehicle entering radio range)
// and returns an unsubscribe function (the vehicle leaving range).
func (c *Channel) Subscribe(fn func(Beacon)) (cancel func(), err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	id := c.nextSub
	c.nextSub++
	c.listeners[id] = fn
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		delete(c.listeners, id)
	}, nil
}

// AttachSink registers the RSU-side report consumer. Only one sink may be
// attached at a time. The sink receives, with each report, the stripe
// Send counted it on, so that it can count on the same one: one stripe
// selection per report.
func (c *Channel) AttachSink(fn func(Report, stripe.ID)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	if c.sink.Load() != nil {
		return errors.New("dsrc: report sink already attached")
	}
	c.sink.Store(&fn)
	return nil
}

// Broadcast delivers the beacon to every subscribed vehicle, dropping each
// copy independently with probability BeaconLoss. Listeners draw their
// loss decisions in subscription order, so a seeded channel drops the
// same copies on every run. Listeners run on the caller's goroutine,
// outside the channel lock. Beacons are visible to every radio in range:
// a public sink.
//
//ptm:sink dsrc broadcast
func (c *Channel) Broadcast(b Beacon) error {
	c.mu.Lock()
	if c.closed.Load() {
		c.mu.Unlock()
		return ErrClosed
	}
	ids := make([]int, 0, len(c.listeners))
	for id := range c.listeners {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	var deliver []func(Beacon)
	for _, id := range ids {
		fn := c.listeners[id]
		c.beaconsSent.Add(1)
		if c.cfg.BeaconLoss > 0 && c.rng.Float64() < c.cfg.BeaconLoss {
			c.beaconsLost.Add(1)
			continue
		}
		deliver = append(deliver, fn)
	}
	c.mu.Unlock()
	for _, fn := range deliver {
		fn(b)
	}
	return nil
}

// Send transmits a vehicle report to the RSU, subject to ReportLoss. The
// over-the-air report is observable by any radio in range: a public sink.
//
//ptm:sink dsrc transmission
func (c *Channel) Send(r Report) error {
	sink := c.sink.Load()
	if sink == nil {
		// Close stores a nil sink, so closed only tells the two apart.
		if c.closed.Load() {
			return ErrClosed
		}
		return ErrNoUplink
	}
	s := stripe.Pick()
	c.reportsSent.At(s).Count.Add(1)
	if c.cfg.ReportLoss > 0 {
		c.mu.Lock()
		lost := c.rng.Float64() < c.cfg.ReportLoss
		c.mu.Unlock()
		if lost {
			c.reportsLost.Add(1)
			return nil // lost in the air; sender cannot tell
		}
	}
	(*sink)(r, s)
	return nil
}

// Close tears the channel down; subsequent operations fail with ErrClosed.
// A Send racing Close may still deliver its report — exactly like a frame
// already in the air when the radio powers off.
func (c *Channel) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed.Store(true)
	c.listeners = map[int]func(Beacon){}
	c.sink.Store(nil)
}

// Stats reports message counters (sent includes lost).
type Stats struct {
	BeaconsSent, BeaconsLost uint64
	ReportsSent, ReportsLost uint64
}

// Stats returns the channel counters. ReportsSent is a sum over stripes:
// it never decreases from one call to the next and is exact once senders
// are quiet, but while they run it is not a snapshot of one instant.
func (c *Channel) Stats() Stats {
	return Stats{
		BeaconsSent: c.beaconsSent.Load(), BeaconsLost: c.beaconsLost.Load(),
		ReportsSent: c.reportsSent.Sum(), ReportsLost: c.reportsLost.Load(),
	}
}

// NewAnonymousMAC draws a fresh locally administered, unicast MAC address
// from rng — the SpoofMAC one-time address model. It exists for
// simulations that need reproducible runs; deployments use NewSecureMAC,
// whose addresses cannot be predicted by an observer.
func NewAnonymousMAC(rng *rand.Rand) MAC {
	var m MAC
	v := rng.Uint64()
	for i := 0; i < 6; i++ {
		m[i] = byte(v >> (8 * i))
	}
	return finishMAC(m)
}

// NewSecureMAC draws a fresh locally administered, unicast MAC address
// from crypto/rand. Unpredictability is what makes consecutive reports
// unlinkable at the link layer (Section II-B), so this is the source the
// vehicle runtime uses outside of simulations.
func NewSecureMAC() (MAC, error) {
	var m MAC
	if _, err := crand.Read(m[:]); err != nil {
		return MAC{}, fmt.Errorf("dsrc: drawing one-time MAC: %w", err)
	}
	return finishMAC(m), nil
}

// finishMAC forces the locally-administered bit on and the multicast bit
// off, the address class SpoofMAC draws from.
func finishMAC(m MAC) MAC {
	m[0] = (m[0] | 0x02) &^ 0x01
	return m
}
