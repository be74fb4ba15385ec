package ptm

// City-scale integration test: the mobility model drives vehicles through
// the full protocol stack — signed beacons over lossy radio, vehicle-side
// verification, anonymous reports, period rotation — and records travel
// to the central server over TLS; queries are checked against exact
// mobility ground truth.

import (
	"context"
	"crypto/tls"
	"math"
	"net"
	"sync"
	"testing"
	"time"
)

func TestCityIntegrationTLS(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack integration is slow")
	}
	// crypto/tls verifies certificates against the real clock, so the
	// whole test runs on real time.
	now := time.Now()
	clock := func() time.Time { return now }

	// Road network: two commuter corridors crossing at (2,2).
	grid, err := NewRoadGrid(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	world, err := NewTrafficWorld(grid, DefaultS, 404)
	if err != nil {
		t.Fatal(err)
	}
	if err := world.AddCommuters(250, GridTrip{From: GridPoint{X: 0, Y: 2}, To: GridPoint{X: 4, Y: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := world.AddCommuters(150, GridTrip{From: GridPoint{X: 2, Y: 0}, To: GridPoint{X: 2, Y: 4}}); err != nil {
		t.Fatal(err)
	}
	if err := world.SetBackgroundTrips(600); err != nil {
		t.Fatal(err)
	}

	// PKI + central server behind TLS.
	authority, err := NewAuthority(now, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	serverCert, err := authority.IssueTLSServer("127.0.0.1", now, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	store, err := NewCentralServer(DefaultS)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewTransportServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := tls.NewListener(tcpLn, ServerTLSConfig(serverCert))
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })

	client, err := DialTLS(ln.Addr().String(), authority.ClientTLSConfig(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })

	// Two instrumented intersections on the east-west corridor.
	locA, err := grid.Loc(GridPoint{X: 1, Y: 2})
	if err != nil {
		t.Fatal(err)
	}
	locB, err := grid.Loc(GridPoint{X: 3, Y: 2})
	if err != nil {
		t.Fatal(err)
	}

	type site struct {
		loc LocationID
		ch  *Channel
		rsu *RSU
	}
	var sites []*site
	for i, loc := range []LocationID{locA, locB} {
		cred, err := authority.IssueRSU(loc, now, 24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		ch, err := NewChannel(ChannelConfig{BeaconLoss: 0.3, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		unit, err := NewRSU(cred, ch, DefaultF, clock)
		if err != nil {
			t.Fatal(err)
		}
		sites = append(sites, &site{loc: loc, ch: ch, rsu: unit})
	}

	const days = 4
	for day := 1; day <= days; day++ {
		visits, err := world.Day()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sites {
			vehicles := visits[s.loc]
			if err := s.rsu.StartPeriod(PeriodID(day), float64(len(vehicles))); err != nil {
				t.Fatal(err)
			}
			var leaves []func()
			for _, id := range vehicles {
				v, err := NewVehicle(id, authority, clock)
				if err != nil {
					t.Fatal(err)
				}
				leave, err := v.PassThrough(s.ch)
				if err != nil {
					t.Fatal(err)
				}
				leaves = append(leaves, leave)
			}
			// 30% beacon loss: 12 rounds make a miss vanishingly rare.
			for round := 0; round < 12; round++ {
				if err := s.rsu.Beacon(); err != nil {
					t.Fatal(err)
				}
			}
			for _, leave := range leaves {
				leave()
			}
			rec, err := s.rsu.EndPeriod()
			if err != nil {
				t.Fatal(err)
			}
			if err := client.Upload(rec); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Server-side bookkeeping.
	locs, err := client.ListLocations()
	if err != nil {
		t.Fatal(err)
	}
	if len(locs) != 2 {
		t.Fatalf("locations = %v", locs)
	}
	periods := []PeriodID{1, 2, 3, 4}

	// Point persistent at each site vs. mobility ground truth.
	for _, s := range sites {
		truth := float64(world.CommutersThrough(s.loc))
		got, err := client.QueryPointPersistent(s.loc, periods)
		if err != nil {
			t.Fatal(err)
		}
		if re := math.Abs(got-truth) / truth; re > 0.25 {
			t.Errorf("site %d persistent %v vs truth %v (rel err %.3f)", s.loc, got, truth, re)
		}
	}
	// Point-to-point persistent along the corridor.
	truthBoth := float64(world.CommutersThroughBoth(locA, locB))
	got, err := client.QueryPointToPointPersistent(locA, locB, periods)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(got-truthBoth) / truthBoth; re > 0.3 {
		t.Errorf("corridor persistent %v vs truth %v (rel err %.3f)", got, truthBoth, re)
	}
}

// TestScheduledRSUIntegration runs an RSU on the real clock at compressed
// timescales: the controller rotates periods, beacons reach a standing
// fleet, and records are uploaded automatically through the backhaul.
func TestScheduledRSUIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-based integration")
	}
	now := time.Now()
	authority, err := NewAuthority(now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := authority.IssueRSU(55, now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := NewChannel(ChannelConfig{})
	if err != nil {
		t.Fatal(err)
	}
	unit, err := NewRSU(cred, ch, DefaultF, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A standing fleet remains in radio range for the whole test; each
	// vehicle reports once per period (dedup is per period).
	const fleetSize = 40
	for i := 0; i < fleetSize; i++ {
		id, err := NewSeededVehicleIdentity(VehicleID(i), DefaultS, 123)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewVehicle(id, authority, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.PassThrough(ch); err != nil {
			t.Fatal(err)
		}
	}

	var (
		mu      sync.Mutex
		uploads []*Record
	)
	send := func(recs []*Record) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		uploads = append(uploads, recs...)
		return len(recs), nil
	}
	spool, err := OpenRSUSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	ctl, err := NewRSUController(unit, RSUSchedule{
		PeriodLength:   250 * time.Millisecond,
		BeaconInterval: 40 * time.Millisecond,
		FirstPeriod:    1,
	}, spool, send, func(PeriodID) float64 { return fleetSize }, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 650*time.Millisecond)
	defer cancel()
	if err := ctl.Run(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Run returned %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	// Two full periods plus the partial one at cancellation.
	if len(uploads) < 2 {
		t.Fatalf("uploads = %d, want >= 2", len(uploads))
	}
	for i, rec := range uploads {
		if rec.Period != PeriodID(i+1) || rec.Location != 55 {
			t.Errorf("upload %d: loc=%d period=%d", i, rec.Location, rec.Period)
		}
	}
	// Full periods captured the whole standing fleet (bit collisions are
	// expected at m=128; the linear-counting estimate inverts them).
	vol, err := EstimateVolume(uploads[0])
	if err != nil {
		t.Fatal(err)
	}
	if vol < fleetSize*0.7 || vol > fleetSize*1.3 {
		t.Errorf("period 1 volume estimate = %.1f, want ~%d", vol, fleetSize)
	}
}
