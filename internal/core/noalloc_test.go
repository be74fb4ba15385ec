//go:build !race

// Zero-allocation regression tests for the //ptm:noalloc estimator hot
// paths, mirroring the perfguard contracts proved at lint time. The file
// is excluded from -race builds because race instrumentation introduces
// allocations unrelated to the contracts under test.

package core

import "testing"

func TestEstimatorHotPathsDoNotAllocate(t *testing.T) {
	pool := newIDPool(t, 2, 42)
	common := pool.take(50)
	set := makeSet(t, pool, 7, 1<<10, common, []int{40, 40, 40, 40})
	bs := set.Bitmaps()
	pa, pb := SplitHalves.split(bs)
	m := set.MaxSize()
	var sink float64

	if n := testing.AllocsPerRun(100, func() {
		va0, vb0, v1, err := pointFractions(bs, pa, pb, m)
		if err != nil {
			t.Fatal(err)
		}
		sink = va0 + vb0 + v1
	}); n != 0 {
		t.Errorf("pointFractions allocated %.1f times per run, want 0", n)
	}

	if n := testing.AllocsPerRun(100, func() {
		est, err := EstimatePointBaseline(set)
		if err != nil {
			t.Fatal(err)
		}
		sink = est
	}); n != 0 {
		t.Errorf("EstimatePointBaseline allocated %.1f times per run, want 0", n)
	}

	_ = sink
}

// TestEstCacheHelpersDoNotAllocate mirrors the //ptm:noalloc contracts
// on the estimate cache's per-lookup helpers (these run on every query,
// hit or miss).
func TestEstCacheHelpersDoNotAllocate(t *testing.T) {
	pool := newIDPool(t, 2, 43)
	set := makeSet(t, pool, 8, 1<<8, pool.take(20), []int{10, 10, 10})
	periods := set.Periods()
	other := set.Periods()
	var sinkU uint64
	var sinkB bool
	var sinkK estKey

	if n := testing.AllocsPerRun(100, func() {
		sinkU = hashPeriods(periods)
	}); n != 0 {
		t.Errorf("hashPeriods allocated %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkB = periodsMatch(periods, other)
	}); n != 0 {
		t.Errorf("periodsMatch allocated %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		sinkK = makeKey(estKindP2P, 0, 3, 8, 9, periods)
	}); n != 0 {
		t.Errorf("makeKey allocated %.1f times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_, sinkB = sortedPeriods(periods)
	}); n != 0 {
		t.Errorf("sortedPeriods allocated %.1f times per run on a sorted request, want 0", n)
	}
	_, _, _ = sinkU, sinkB, sinkK
}
