package store

import (
	"fmt"
	"testing"

	"ptm/internal/bitmap"
	"ptm/internal/record"
	"ptm/internal/vhash"
)

// oocM is the per-record bitmap size of the out-of-core sweep: 2^24
// bits (2 MiB of words), the acceptance floor where cold-tier joins
// must stay within 2x of resident throughput.
const (
	oocM       = 1 << 24
	oocPeriods = 4
	oocLoc     = vhash.LocationID(1)
)

// oocRecords builds the deterministic join operand set: oocPeriods
// records of oocM bits whose words carry a period-mixed pattern (the
// AND scan touches every word regardless of density, so the pattern
// only needs to be non-trivial).
func oocRecords(b *testing.B) []*record.Record {
	b.Helper()
	recs := make([]*record.Record, 0, oocPeriods)
	for p := 1; p <= oocPeriods; p++ {
		words := make([]uint64, oocM/64)
		seed := uint64(p) * 0x9e3779b97f4a7c15
		for i := range words {
			words[i] = seed ^ uint64(i)*0x2545f4914f6cdd1d
		}
		bm, err := bitmap.FromWords(words)
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, &record.Record{Location: oocLoc, Period: record.PeriodID(p), Bitmap: bm})
	}
	return recs
}

// benchJoin drives the join workload: collect the operands from the
// store (pinning any cold spans), AND-join their bitmaps with the fused
// kernel — the path central's estimators run — unpin.
func benchJoin(b *testing.B, st Store) {
	b.Helper()
	periods := make([]record.PeriodID, 0, oocPeriods)
	for p := 1; p <= oocPeriods; p++ {
		periods = append(periods, record.PeriodID(p))
	}
	b.SetBytes(int64(oocPeriods) * oocM / 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recs, _, unpin, err := st.Collect(oocLoc, periods)
		if err != nil {
			b.Fatal(err)
		}
		bms := make([]*bitmap.Bitmap, len(recs))
		for j, rec := range recs {
			bms[j] = rec.Bitmap
		}
		ones, _, err := bitmap.AndOnes(bms)
		unpin()
		if err != nil {
			b.Fatal(err)
		}
		if ones < 0 {
			b.Fatal("impossible popcount")
		}
	}
	b.StopTimer()
	if cs, ok := st.(CacheStatser); ok {
		stats := cs.CacheStats()
		b.ReportMetric(float64(stats.Hits)/float64(b.N), "cachehits/op")
		b.ReportMetric(float64(stats.Misses)/float64(b.N), "cachemisses/op")
		b.ReportMetric(float64(stats.Evictions)/float64(b.N), "cacheevictions/op")
	}
}

// BenchmarkOOCJoin sweeps the memory hierarchy: the same 4-period AND
// join at m=2^24 against (a) the all-resident store, (b) the cold tier
// with every span cached (the steady state of a working set that fits
// PTM_BLOCKCACHE_BYTES), and (c) the cold tier with a degenerate
// 1-byte cache, so every iteration reloads its spans from the mapped
// segment after madvise(DONTNEED) — the page-fault-bounded floor. The
// sub-benchmark names carry the parameters as key=value segments (tier,
// pagecache, budget, m, t).
func BenchmarkOOCJoin(b *testing.B) {
	recs := oocRecords(b)

	fmtName := func(tier, extra string) string {
		s := fmt.Sprintf("tier=%s", tier)
		if extra != "" {
			s += "/" + extra
		}
		return fmt.Sprintf("%s/m=%d/t=%d", s, oocM, oocPeriods)
	}

	b.Run(fmtName("resident", ""), func(b *testing.B) {
		m, err := NewMem(0)
		if err != nil {
			b.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := m.Ingest(rec); err != nil {
				b.Fatal(err)
			}
		}
		benchJoin(b, m)
	})

	coldStore := func(b *testing.B, cacheBytes int64) *Tiered {
		b.Helper()
		ts, err := OpenTiered(b.TempDir(), TieredOptions{
			// A 1-byte budget freezes every ingest immediately: the
			// whole data set lives cold, 10^6x the budget.
			ResidentBudget: 1,
			CacheBytes:     cacheBytes,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() {
			//ptmlint:allow errdrop -- benchmark teardown
			_ = ts.Close()
		})
		for _, rec := range recs {
			clone := &record.Record{Location: rec.Location, Period: rec.Period, Bitmap: rec.Bitmap.Clone()}
			if _, err := ts.Ingest(clone); err != nil {
				b.Fatal(err)
			}
		}
		if st := ts.Stats(); st.ColdRecords != oocPeriods {
			b.Fatalf("dataset not fully cold: %+v", st)
		}
		return ts
	}

	b.Run(fmtName("cold", "pagecache=warm/budget=1"), func(b *testing.B) {
		ts := coldStore(b, 0) // default cache holds the whole working set
		benchJoin(b, ts)
	})

	b.Run(fmtName("cold", "pagecache=evicted/budget=1"), func(b *testing.B) {
		ts := coldStore(b, 1) // every unpin evicts; every Get reloads
		benchJoin(b, ts)
	})
}
