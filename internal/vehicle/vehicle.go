// Package vehicle implements the on-board unit's side of the measurement
// protocol (Sections II-B and II-D): receive a beacon, verify that the RSU
// belongs to the trusted authority, compute the single index value
// h_v = H(v ⊕ Kv ⊕ C[H(L ⊕ v) mod s]) mod m, and transmit it under a
// fresh one-time MAC address. The vehicle never transmits its identity or
// any other fixed value.
//
// # Randomness policy
//
// This package is privacy-critical and deliberately does not import
// math/rand (enforced by ptmlint's cryptorand rule). The unlinkability of
// consecutive reports rests on the one-time MAC addresses being
// unpredictable: a seeded or otherwise guessable generator would let a
// roadside observer replay the generator and stitch reports from the same
// vehicle back together — precisely the pseudonym-linkage attack the
// paper's design avoids. New therefore draws MACs from crypto/rand.
// Simulations that need reproducible runs inject their own generator via
// NewWithMACSource; such call sites live outside this package, next to a
// //ptmlint:allow cryptorand directive where a deterministic source is
// constructed.
package vehicle

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ptm/internal/dsrc"
	"ptm/internal/pki"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// Clock abstracts time for deterministic tests.
type Clock func() time.Time

// MACSource produces the fresh one-time link-layer address used for each
// report (the SpoofMAC model of Section II-B).
type MACSource func() (dsrc.MAC, error)

// Vehicle is one on-board unit.
type Vehicle struct {
	identity *vhash.Identity //ptm:source vehicle private state
	verifier *pki.Verifier
	clock    Clock
	macs     MACSource // set at construction, never reassigned

	mu       sync.Mutex
	reported map[visitKey]bool //ptm:guardedby mu
	rejected uint64            //ptm:guardedby mu
}

type visitKey struct {
	loc    vhash.LocationID
	period record.PeriodID
}

// ErrNilDependency is returned when constructor arguments are missing.
var ErrNilDependency = errors.New("vehicle: nil identity, verifier, or MAC source")

// New creates a vehicle from its private identity and the pre-installed
// trust anchor, drawing one-time MAC addresses from crypto/rand; clock
// may be nil for time.Now. This is the constructor for deployments.
func New(identity *vhash.Identity, verifier *pki.Verifier, clock Clock) (*Vehicle, error) {
	return NewWithMACSource(identity, verifier, clock, dsrc.NewSecureMAC)
}

// NewWithMACSource creates a vehicle with an explicit one-time MAC
// generator. Simulations use it for reproducible runs; deployments should
// use New, whose crypto/rand source keeps consecutive reports unlinkable.
func NewWithMACSource(identity *vhash.Identity, verifier *pki.Verifier, clock Clock, macs MACSource) (*Vehicle, error) {
	if identity == nil || verifier == nil || macs == nil {
		return nil, ErrNilDependency
	}
	if clock == nil {
		clock = time.Now
	}
	return &Vehicle{
		identity: identity,
		verifier: verifier,
		clock:    clock,
		macs:     macs,
		reported: make(map[visitKey]bool),
	}, nil
}

// ID returns the vehicle's identifier (never transmitted; used by
// simulations for ground truth).
func (v *Vehicle) ID() vhash.VehicleID { return v.identity.ID() }

// HandleBeacon processes one received beacon and, if the RSU verifies and
// this (location, period) has not been answered yet, returns the report to
// transmit. It returns (nil, nil) for duplicate beacons of a period the
// vehicle already reported — RSUs beacon every second, but a passing
// vehicle encodes itself once per period.
func (v *Vehicle) HandleBeacon(b dsrc.Beacon) (*dsrc.Report, error) {
	key := visitKey{loc: b.Location, period: b.Period}
	// Skip the (expensive) certificate verification for periods already
	// answered. Safe: the key is only marked after a verified beacon, so
	// a forged beacon cannot suppress a future report.
	v.mu.Lock()
	done := v.reported[key]
	v.mu.Unlock()
	if done {
		return nil, nil
	}
	if _, err := v.verifier.VerifyBeacon(b.CertDER, b.Location, b.M, uint32(b.Period), b.Sig, v.clock()); err != nil {
		v.mu.Lock()
		v.rejected++
		v.mu.Unlock()
		// Per Section II-B the vehicle keeps silent on failed
		// verification; the error is surfaced for observability only.
		return nil, fmt.Errorf("vehicle: beacon rejected: %w", err)
	}
	// Draw the one-time address outside the lock; a slow entropy source
	// must not serialize unrelated beacon handling.
	mac, err := v.macs()
	if err != nil {
		return nil, fmt.Errorf("vehicle: drawing one-time MAC: %w", err)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.reported[key] {
		return nil, nil
	}
	v.reported[key] = true
	return &dsrc.Report{
		SrcMAC: mac,
		Period: b.Period,
		Index:  v.identity.Index(b.Location, b.M),
	}, nil
}

// PassThrough subscribes the vehicle to an RSU's channel, so that the next
// verified beacon triggers its report, and returns the unsubscribe
// function. This models a vehicle driving into radio range.
func (v *Vehicle) PassThrough(ch *dsrc.Channel) (leave func(), err error) {
	return ch.Subscribe(func(b dsrc.Beacon) {
		rep, err := v.HandleBeacon(b)
		if err != nil || rep == nil {
			return
		}
		// Loss is the channel's business; a lost report is simply a
		// vehicle the RSU never counted.
		//ptmlint:allow errdrop -- radio loss is modeled by the channel, not handled by the sender
		_ = ch.Send(*rep)
	})
}

// Rejected reports how many beacons failed verification (rogue RSUs).
func (v *Vehicle) Rejected() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.rejected
}

// ResetVisits clears the per-period reporting memory; simulations call it
// between reuse of the same vehicle fleet across scenario resets.
func (v *Vehicle) ResetVisits() {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.reported = make(map[visitKey]bool)
}
