package main

// The correctness gate. Every answer the system gives is compared, bit
// for bit, with the benchmark's own reference: the core estimators run
// directly on the generator's records (ROADMAP invariant (a): an
// estimate is a pure function of the deduplicated record set, whatever
// tier, node count or delivery path served it). Persistent estimates
// must also land near the generator's known fleet size.

import (
	"math"

	"ptm/internal/core"
	"ptm/internal/record"
)

// estimateTolerance bounds a checked estimate's distance from the
// generator's known persistent-fleet size.
const estimateTolerance = 0.15

type verifier struct {
	rep     *report
	corrupt bool // test-only: shift every reference so no answer can match
	fleet   int  // the generator's persistent-fleet size
	// extra marks answers of a loop whose length is not fixed; see
	// report.checkExtra.
	extra bool
}

func (v *verifier) check(ok bool, format string, args ...any) {
	if v.extra {
		v.rep.checkExtra(ok, format, args...)
		return
	}
	v.rep.check(ok, format, args...)
}

func (v *verifier) reference(x float64) float64 {
	if v.corrupt {
		return x + 1
	}
	return x
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func referencePoint(recs []*record.Record) (float64, error) {
	set, err := record.NewSet(recs)
	if err != nil {
		return 0, err
	}
	res, err := core.EstimatePoint(set)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

func referenceP2P(a, b []*record.Record) (float64, error) {
	setA, err := record.NewSet(a)
	if err != nil {
		return 0, err
	}
	setB, err := record.NewSet(b)
	if err != nil {
		return 0, err
	}
	res, err := core.EstimatePointToPoint(setA, setB, representativeBits)
	if err != nil {
		return 0, err
	}
	return res.Estimate, nil
}

// answer checks one wire answer against its reference and, for the
// persistent estimators, against the fleet size.
func (v *verifier) answer(kind string, got float64, gotErr error, want float64, wantErr error, persistent bool) {
	want = v.reference(want)
	v.check(gotErr == nil && wantErr == nil && sameBits(got, want),
		"%s: got %v (err %v), reference %v (err %v)", kind, got, gotErr, want, wantErr)
	if persistent {
		fleet := float64(v.fleet)
		v.check(math.Abs(want-fleet)/fleet <= estimateTolerance,
			"%s: estimate %.0f is not within %.0f%% of the fleet size %d", kind, want, estimateTolerance*100, v.fleet)
	}
}

func (v *verifier) point(got float64, gotErr error, recs []*record.Record) {
	want, err := referencePoint(recs)
	v.answer("point", got, gotErr, want, err, true)
}

func (v *verifier) p2p(got float64, gotErr error, a, b []*record.Record) {
	want, err := referenceP2P(a, b)
	v.answer("p2p", got, gotErr, want, err, true)
}

func (v *verifier) volume(got float64, gotErr error, rec *record.Record) {
	want, err := core.EstimateVolume(rec)
	v.answer("volume", got, gotErr, want, err, false)
}
