//go:build !race

// Zero-allocation regression test for the ring lookup on the ingest and
// query paths. The file is excluded from -race builds because race
// instrumentation introduces allocations unrelated to the contract under
// test.

package cluster

import (
	"testing"

	"ptm/internal/vhash"
)

func TestRingLeaderDoesNotAllocate(t *testing.T) {
	r := testRing(3, 2, DefaultVNodes)
	loc := vhash.LocationID(0)
	if n := testing.AllocsPerRun(100, func() {
		loc++
		if _, err := r.Leader(loc); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Leader allocated %.1f times per run, want 0", n)
	}
}
