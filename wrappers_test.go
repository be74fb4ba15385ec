package ptm

// Coverage for the thin public wrappers whose substance is tested in the
// internal packages: each is exercised once through the façade so API
// regressions (signature drift, wiring mistakes) surface here.

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestEstimateODVolumeAPI(t *testing.T) {
	common := make([]*VehicleIdentity, 400)
	for i := range common {
		v, err := NewSeededVehicleIdentity(VehicleID(i), DefaultS, 31)
		if err != nil {
			t.Fatal(err)
		}
		common[i] = v
	}
	rng := rand.New(rand.NewSource(8))
	build := func(loc LocationID) *Record {
		b, err := NewRecordBuilder(loc, 1, 3000, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range common {
			b.Observe(v)
		}
		for i := 0; i < 2600; i++ {
			b.ObserveIndex(rng.Uint64())
		}
		return b.Finish()
	}
	res, err := EstimateODVolume(build(1), build(2), DefaultS)
	if err != nil {
		t.Fatal(err)
	}
	if re := math.Abs(res.Estimate-400) / 400; re > 0.5 {
		t.Errorf("OD estimate %v vs 400", res.Estimate)
	}
}

func TestMultiPointUpperBoundAPI(t *testing.T) {
	recsA := makeRecords(t, 1, 3, 300, 2000, 41)
	recsB := makeRecords(t, 2, 3, 300, 2000, 41) // same seed: same common fleet
	recsC := makeRecords(t, 3, 3, 300, 2000, 41)
	bound, err := EstimateMultiPointUpperBound([][]*Record{recsA, recsB, recsC}, DefaultS)
	if err != nil {
		t.Fatal(err)
	}
	if bound.UpperBound < 200 || bound.UpperBound > 450 {
		t.Errorf("bound = %v, want ~300", bound.UpperBound)
	}
	if len(bound.Pairwise) != 3 {
		t.Errorf("pairwise entries = %d", len(bound.Pairwise))
	}
	if _, err := EstimateMultiPointUpperBound([][]*Record{recsA}, DefaultS); err == nil {
		t.Error("single location accepted")
	}
	if _, err := EstimateMultiPointUpperBound([][]*Record{recsA, nil}, DefaultS); err == nil {
		t.Error("nil record slice accepted")
	}
}

func TestP2PConfidenceAPI(t *testing.T) {
	recsA := makeRecords(t, 4, 4, 500, 3000, 43)
	recsB := makeRecords(t, 5, 4, 500, 3000, 43)
	est, err := EstimatePointToPoint(recsA, recsB, DefaultS)
	if err != nil {
		t.Fatal(err)
	}
	iv, err := PointToPointConfidence(est, 0.9, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo >= iv.Hi || iv.Lo > est.Estimate || iv.Hi < est.Estimate {
		t.Errorf("interval [%v, %v] around %v", iv.Lo, iv.Hi, est.Estimate)
	}
}

func TestCryptoIdentityAPI(t *testing.T) {
	v, err := NewVehicleIdentity(7, DefaultS)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID() != 7 || v.S() != DefaultS {
		t.Errorf("identity: id=%d s=%d", v.ID(), v.S())
	}
	if _, err := NewVehicleIdentity(1, 0); err == nil {
		t.Error("s=0 accepted")
	}
}

func TestTripTableAPI(t *testing.T) {
	tab, err := NewTripTable(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.SetOD(1, 2, 500); err != nil {
		t.Fatal(err)
	}
	csv := "from,to,volume\n1,2,100\n2,3,200\n"
	loaded, err := LoadTripTableCSV(strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Zones() != 3 {
		t.Errorf("zones = %d", loaded.Zones())
	}
	v, err := loaded.OD(2, 3)
	if err != nil || v != 200 {
		t.Errorf("OD = %v, %v", v, err)
	}
}

func TestRSUControllerAPI(t *testing.T) {
	now := time.Now()
	authority, err := NewAuthority(now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := authority.IssueRSU(1, now, time.Hour)
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
	spool, err := OpenRSUSpool(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer spool.Close()
	ctl, err := NewRSUController(unit,
		RSUSchedule{PeriodLength: time.Hour, BeaconInterval: time.Second},
		spool,
		func(recs []*Record) (int, error) { return len(recs), nil },
		func(PeriodID) float64 { return 100 },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if ctl.Uploaded() != 0 || ctl.LastDrainErr() != nil || spool.Pending() != 0 {
		t.Error("fresh controller has non-zero counters")
	}
}

func TestDialFailsFast(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Error("dial to dead port succeeded")
	}
}
