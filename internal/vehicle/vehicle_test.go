package vehicle

import (
	"errors"
	"testing"
	"time"

	"ptm/internal/dsrc"
	"ptm/internal/pki"
	"ptm/internal/record"
	"ptm/internal/stripe"
	"ptm/internal/vhash"
)

var t0 = time.Date(2026, 7, 1, 8, 0, 0, 0, time.UTC)

func fixedClock() time.Time { return t0 }

type fixture struct {
	authority *pki.Authority
	cred      *pki.Credential
	vehicle   *Vehicle
}

func newFixture(t *testing.T, loc vhash.LocationID) *fixture {
	t.Helper()
	a, err := pki.NewAuthority(t0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := a.IssueRSU(loc, t0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	id, err := vhash.NewSeededIdentity(1, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	v, err := New(id, a.TrustAnchor(), fixedClock)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{authority: a, cred: cred, vehicle: v}
}

func (f *fixture) beacon(t *testing.T, loc vhash.LocationID, m int, p record.PeriodID) dsrc.Beacon {
	t.Helper()
	sig, err := f.cred.SignBeacon(loc, m, uint32(p))
	if err != nil {
		t.Fatal(err)
	}
	return dsrc.Beacon{Location: loc, M: m, Period: p, CertDER: f.cred.CertificateDER(), Sig: sig}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, nil); !errors.Is(err, ErrNilDependency) {
		t.Errorf("err = %v, want ErrNilDependency", err)
	}
}

func TestHandleBeaconProducesCorrectIndex(t *testing.T) {
	f := newFixture(t, 9)
	b := f.beacon(t, 9, 1<<12, 1)
	rep, err := f.vehicle.HandleBeacon(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("no report")
	}
	id, err := vhash.NewSeededIdentity(1, 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Index != id.Index(9, 1<<12) {
		t.Errorf("index = %d, want %d", rep.Index, id.Index(9, 1<<12))
	}
	if rep.Period != 1 {
		t.Errorf("period = %d", rep.Period)
	}
}

func TestDuplicateBeaconSuppressed(t *testing.T) {
	f := newFixture(t, 9)
	b := f.beacon(t, 9, 1<<12, 1)
	if rep, err := f.vehicle.HandleBeacon(b); err != nil || rep == nil {
		t.Fatalf("first beacon: rep=%v err=%v", rep, err)
	}
	rep, err := f.vehicle.HandleBeacon(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep != nil {
		t.Error("second beacon of the same period produced a report")
	}
	// A new period at the same location must report again.
	b2 := f.beacon(t, 9, 1<<12, 2)
	if rep, err := f.vehicle.HandleBeacon(b2); err != nil || rep == nil {
		t.Fatalf("new period: rep=%v err=%v", rep, err)
	}
	// After ResetVisits the same period reports again (fleet reuse).
	f.vehicle.ResetVisits()
	if rep, err := f.vehicle.HandleBeacon(b); err != nil || rep == nil {
		t.Fatalf("after reset: rep=%v err=%v", rep, err)
	}
}

func TestRogueBeaconRejectedSilently(t *testing.T) {
	f := newFixture(t, 9)
	rogue, err := pki.NewAuthority(t0, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := rogue.IssueRSU(9, t0, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := cred.SignBeacon(9, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.vehicle.HandleBeacon(dsrc.Beacon{Location: 9, M: 64, Period: 1, CertDER: cred.CertificateDER(), Sig: sig})
	if rep != nil {
		t.Error("rogue beacon produced a report")
	}
	if !errors.Is(err, pki.ErrUntrusted) {
		t.Errorf("err = %v, want ErrUntrusted", err)
	}
	if f.vehicle.Rejected() != 1 {
		t.Errorf("Rejected = %d", f.vehicle.Rejected())
	}
}

func TestFreshMACPerReport(t *testing.T) {
	f := newFixture(t, 9)
	macs := map[dsrc.MAC]bool{}
	for p := record.PeriodID(1); p <= 50; p++ {
		rep, err := f.vehicle.HandleBeacon(f.beacon(t, 9, 64, p))
		if err != nil {
			t.Fatal(err)
		}
		macs[rep.SrcMAC] = true
	}
	if len(macs) != 50 {
		t.Errorf("%d distinct MACs over 50 reports; addresses must be one-time", len(macs))
	}
}

func TestPassThrough(t *testing.T) {
	f := newFixture(t, 9)
	ch, err := dsrc.NewChannel(dsrc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var got []dsrc.Report
	if err := ch.AttachSink(func(r dsrc.Report, _ stripe.ID) { got = append(got, r) }); err != nil {
		t.Fatal(err)
	}
	leave, err := f.vehicle.PassThrough(ch)
	if err != nil {
		t.Fatal(err)
	}
	if err := ch.Broadcast(f.beacon(t, 9, 1<<10, 3)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("sink saw %d reports", len(got))
	}
	leave()
	if err := ch.Broadcast(f.beacon(t, 9, 1<<10, 4)); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Error("vehicle reported after leaving range")
	}
}
