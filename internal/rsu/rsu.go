// Package rsu implements the road-side unit runtime of Section II-D: per
// measurement period it maintains a bitmap sized by Eq. (2), broadcasts
// signed beacons at preset intervals, folds incoming vehicle reports into
// the bitmap, and at period end emits the traffic record for upload to the
// central server. The RSU never stores any per-vehicle information.
//
// Concurrency contract: the report path is lock-free, and the only cache
// line two concurrent reports both write is the bitmap word itself. The
// active period lives behind an atomic.Pointer (RCU-style): handleReport
// loads the pointer, announces itself on the stripe the channel chose for
// the report, and ORs one bit into the bitmap atomically, never blocking
// on other reports or on period rotation. StartPeriod/EndPeriod are the
// writers — they serialize among themselves on a rotation mutex and swap
// the pointer; EndPeriod additionally waits, stripe by stripe, for
// in-flight reports to drain, so the record it returns is quiescent and
// safe for plain reads (marshaling, estimation) without further
// synchronization.
package rsu

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ptm/internal/dsrc"
	"ptm/internal/lpc"
	"ptm/internal/pki"
	"ptm/internal/record"
	"ptm/internal/stripe"
	"ptm/internal/vhash"
)

// Errors.
var (
	ErrNoPeriod     = errors.New("rsu: no measurement period active")
	ErrPeriodActive = errors.New("rsu: a measurement period is already active")
	ErrNilDep       = errors.New("rsu: nil credential or channel")
)

// Clock abstracts time for deterministic tests.
type Clock func() time.Time

// periodState is the RCU-published state of one measurement period. It is
// immutable except for the bitmap contents and the cells, all of which
// are written atomically.
type periodState struct {
	rec *record.Record
	_   [stripe.CellSize - 8]byte // rec is read by every report: no cell shares its line
	// cells holds, per stripe, Entered — the handleReport calls that have
	// announced a write into rec — and Count — those that have finished
	// it, which is also the number of reports folded into rec. EndPeriod
	// waits for each stripe to go idle (Entered == Count) after
	// unpublishing the state, which is the RCU grace period that makes
	// rec quiescent.
	cells stripe.Cells
}

// RSU is one road-side unit. Beacon, Stats, and the report sink are safe
// for unbounded concurrent use; StartPeriod/EndPeriod/StartPeriodAuto may
// also be called concurrently (they serialize on an internal rotation
// lock), though deployments typically drive rotation from one scheduler.
type RSU struct {
	cred  *pki.Credential
	ch    *dsrc.Channel
	f     float64
	clock Clock

	// cur is the RCU-published active period; nil between periods. Only
	// the rotation writer (holding rotateMu) may store or swap it, and
	// lock-free readers must re-Load rather than retain a pointer across
	// blocking — both machine-checked by the rcu lint rule. Every report
	// loads it twice, so nothing but rotation writes within a line of it.
	//ptm:rcu rotateMu
	cur atomic.Pointer[periodState]
	_   [64]byte

	// rotateMu serializes period rotation (StartPeriod/EndPeriod). The
	// report path never takes it.
	rotateMu sync.Mutex
	dropped  atomic.Uint64 // reports received with no/mismatched active period
	lastSeen atomic.Uint64 // reports in the most recently completed period
}

// New wires an RSU to its radio channel. f is the system-wide load factor
// of Eq. (2); clock may be nil for time.Now. The RSU registers itself as
// the channel's report sink.
func New(cred *pki.Credential, ch *dsrc.Channel, f float64, clock Clock) (*RSU, error) {
	if cred == nil || ch == nil {
		return nil, ErrNilDep
	}
	if f <= 0 {
		return nil, fmt.Errorf("rsu: load factor must be positive, got %v", f)
	}
	if clock == nil {
		clock = time.Now
	}
	r := &RSU{cred: cred, ch: ch, f: f, clock: clock}
	if err := ch.AttachSink(r.handleReport); err != nil {
		return nil, fmt.Errorf("rsu: attaching to channel: %w", err)
	}
	return r, nil
}

// Location returns the RSU's location.
func (r *RSU) Location() vhash.LocationID { return r.cred.Location }

// StartPeriod begins measurement period p with a fresh bitmap sized by
// Eq. (2) from the expected traffic volume (historical average at this
// location and time).
func (r *RSU) StartPeriod(p record.PeriodID, expectedVolume float64) error {
	m, err := lpc.BitmapSize(expectedVolume, r.f)
	if err != nil {
		return fmt.Errorf("rsu: sizing period %d: %w", p, err)
	}
	rec, err := record.New(r.cred.Location, p, m)
	if err != nil {
		return err
	}
	r.rotateMu.Lock()
	defer r.rotateMu.Unlock()
	if cur := r.cur.Load(); cur != nil {
		return fmt.Errorf("%w: period %d", ErrPeriodActive, cur.rec.Period)
	}
	r.cur.Store(&periodState{rec: rec})
	return nil
}

// Beacon broadcasts one signed beacon for the active period. Deployments
// call this on a ticker ("once per second"); simulations call it once per
// simulated vehicle wave. Beacon never blocks report ingest.
func (r *RSU) Beacon() error {
	cur := r.cur.Load()
	if cur == nil {
		return ErrNoPeriod
	}
	sig, err := r.cred.SignBeacon(r.cred.Location, cur.rec.Size(), uint32(cur.rec.Period))
	if err != nil {
		return err
	}
	return r.ch.Broadcast(dsrc.Beacon{
		Location: r.cred.Location,
		M:        cur.rec.Size(),
		Period:   cur.rec.Period,
		CertDER:  r.cred.CertificateDER(),
		Sig:      sig,
	})
}

// handleReport folds one vehicle report into the active bitmap without
// taking any lock, counting on stripe s — the one the channel picked for
// this report. Reports for other periods (stale or clock-skewed vehicles)
// are dropped, as are reports that lose the race with period rotation —
// indistinguishable, to the vehicle, from arriving a moment later.
func (r *RSU) handleReport(rep dsrc.Report, s stripe.ID) {
	st := r.cur.Load()
	if st == nil {
		r.dropped.Add(1)
		return
	}
	cell := st.cells.At(s)
	cell.Entered.Add(1)
	// Re-check after announcing ourselves: if rotation swapped the
	// pointer between our load and the increment, EndPeriod may already
	// have observed our stripe idle and handed the record off, so we must
	// not touch it. (If the re-check still sees st, the swap — and hence
	// EndPeriod's drain of this stripe — happens after our increment, and
	// the drain waits for us.)
	if r.cur.Load() != st || rep.Period != st.rec.Period {
		cell.Entered.Add(^uint64(0)) // back out
		r.dropped.Add(1)
		return
	}
	st.rec.Bitmap.AtomicSet(rep.Index)
	cell.Count.Add(1) // folded, and out of the section
}

// EndPeriod closes the active period and returns its traffic record. It
// unpublishes the period state, then waits for in-flight reports to
// drain, so the returned record is immutable from the caller's point of
// view.
func (r *RSU) EndPeriod() (*record.Record, error) {
	r.rotateMu.Lock()
	defer r.rotateMu.Unlock()
	st := r.cur.Swap(nil)
	if st == nil {
		return nil, ErrNoPeriod
	}
	// RCU grace period, one stripe at a time: every handler that passed
	// its re-check entered its stripe before the swap and finishes on the
	// same stripe, so a stripe found idle after the swap has no writer
	// left; handlers arriving after the swap back out without writing,
	// whichever stripe they touch.
	for i := range st.cells {
		for !st.cells[i].Idle() {
			runtime.Gosched()
		}
	}
	r.lastSeen.Store(st.cells.Sum())
	return st.rec, nil
}

// ErrNoHistory is returned by StartPeriodAuto before any period has
// completed.
var ErrNoHistory = errors.New("rsu: no completed period to derive an expected volume from")

// StartPeriodAuto begins period p sized from the previous period's
// observed report count — the "historical average at the same location"
// of Eq. (2) for RSUs without an external history feed. Each vehicle
// reports at most once per period (duplicates are suppressed vehicle-side
// and lost reports are simply uncounted), so the report count is itself
// the previous period's volume measurement.
func (r *RSU) StartPeriodAuto(p record.PeriodID) error {
	last := r.lastSeen.Load()
	if last == 0 {
		return ErrNoHistory
	}
	return r.StartPeriod(p, float64(last))
}

// Stats is an observability snapshot.
type Stats struct {
	Active       bool
	Period       record.PeriodID
	BitmapSize   int
	ReportsSeen  uint64
	ReportsDrop  uint64
	OnesFraction float64
}

// Stats returns current counters. It is safe to call while reports are
// being folded concurrently; OnesFraction is then a live snapshot, and
// ReportsSeen a sum over stripes: within a period it never decreases from
// one call to the next, and it is exact once reports are quiet.
func (r *RSU) Stats() Stats {
	s := Stats{ReportsDrop: r.dropped.Load()}
	if st := r.cur.Load(); st != nil {
		s.Active = true
		s.Period = st.rec.Period
		s.BitmapSize = st.rec.Size()
		s.ReportsSeen = st.cells.Sum()
		s.OnesFraction = st.rec.Bitmap.AtomicFractionOne()
	} else {
		s.ReportsSeen = r.lastSeen.Load()
	}
	return s
}
