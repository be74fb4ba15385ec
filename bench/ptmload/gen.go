package main

// Seeded input generation. Everything a workload feeds the system —
// identities, bitmaps, operation lists — is drawn here from the run's
// seed before any timed loop starts; the program under test receives
// only the generated inputs.

import (
	"fmt"
	"math"
	"sort"

	"ptm/internal/bitmap"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// representativeBits is the system-wide s of Section II-D.
const representativeBits = 3

// rng is SplitMix64: small, fast, and identical on every toolchain, so
// one seed names one input set for good.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). The modulo bias is below 2^-40 for
// every n the workloads use.
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// fork derives an independent stream, so adding draws to one input never
// shifts another.
func (r *rng) fork() *rng { return newRNG(r.next()) }

// identities draws n vehicle identities.
func identities(r *rng, n int) ([]*vhash.Identity, error) {
	ids := make([]*vhash.Identity, n)
	for i := range ids {
		id, err := vhash.NewSeededIdentity(vhash.VehicleID(i+1), representativeBits, r.next())
		if err != nil {
			return nil, err
		}
		ids[i] = id
	}
	return ids, nil
}

// fleetWords returns an m-bit word image with the bit of every fleet
// vehicle at loc set: the persistent part of each record at loc.
func fleetWords(fleet []*vhash.Identity, loc vhash.LocationID, m int) []uint64 {
	words := make([]uint64, m/64)
	for _, id := range fleet {
		i := id.Index(loc, m)
		words[i/64] |= 1 << (i % 64)
	}
	return words
}

// transientLoad is the transient vehicles per bit behind every generated
// record: the load that leaves a quarter of the bits set
// (1 - e^-0.2877 = 0.25).
const transientLoad = 0.2877

// noisyRecord builds one period's record at loc: the fleet image plus
// independent transient traffic, one uniformly hashed bit per transient
// vehicle — the traffic model the estimators assume, drawn vehicle by
// vehicle. len(fleet) is a power of two.
func noisyRecord(r *rng, loc vhash.LocationID, p record.PeriodID, fleet []uint64) (*record.Record, error) {
	words := append([]uint64(nil), fleet...)
	m := uint64(len(words)) * 64
	for v := int(transientLoad * float64(m)); v > 0; v-- {
		bit := r.next() & (m - 1)
		words[bit/64] |= 1 << (bit % 64)
	}
	bm, err := bitmap.FromWords(words)
	if err != nil {
		return nil, err
	}
	return &record.Record{Location: loc, Period: p, Bitmap: bm}, nil
}

// recordGrid generates locs x periods records of m bits around one
// shared fleet, indexed [loc][period]; locations are numbered from 1
// and periods from firstPeriod.
func recordGrid(r *rng, fleet []*vhash.Identity, locs, periods, m int, firstPeriod record.PeriodID) ([][]*record.Record, error) {
	grid := make([][]*record.Record, locs)
	for l := range grid {
		loc := vhash.LocationID(l + 1)
		image := fleetWords(fleet, loc, m)
		grid[l] = make([]*record.Record, periods)
		for p := range grid[l] {
			rec, err := noisyRecord(r, loc, firstPeriod+record.PeriodID(p), image)
			if err != nil {
				return nil, err
			}
			grid[l][p] = rec
		}
	}
	return grid, nil
}

// zipf draws ranks in [0, n) with P(k) proportional to 1/(k+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return &zipf{cdf: cdf}
}

func (z *zipf) draw(r *rng) int {
	k := sort.SearchFloat64s(z.cdf, r.float())
	if k >= len(z.cdf) {
		k = len(z.cdf) - 1
	}
	return k
}

// digest folds a workload's generated inputs into 128 bits, so "same
// seed, same inputs" is a checkable statement.
type digest struct{ a, b uint64 }

func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (d *digest) u64(vs ...uint64) {
	for _, v := range vs {
		d.a = mix64(d.a ^ v)
		d.b = mix64(d.b + v + 0x9e3779b97f4a7c15)
	}
}

// record folds in a record's key and every word of its bitmap, so "same
// seed, same inputs" is a statement about every bit uploaded.
func (d *digest) record(rec *record.Record) {
	d.u64(uint64(rec.Location), uint64(rec.Period))
	d.u64(rec.Bitmap.Uint64s()...)
}

func (d *digest) String() string { return fmt.Sprintf("%016x%016x", d.a, d.b) }

// periodRange returns n consecutive periods starting at first.
func periodRange(first record.PeriodID, n int) []record.PeriodID {
	ps := make([]record.PeriodID, n)
	for i := range ps {
		ps[i] = first + record.PeriodID(i)
	}
	return ps
}

func recKey(loc vhash.LocationID, p record.PeriodID) uint64 { return uint64(loc)<<32 | uint64(p) }
