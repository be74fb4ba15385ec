//go:build !race

// Zero-allocation regression tests for the //ptm:noalloc hot paths. The
// perfguard lint rule proves these contracts at analysis time from the
// compiler's own escape diagnostics; each assertion here enforces the
// same contract at runtime, one per annotated entry point. The file is
// excluded from -race builds because race instrumentation introduces
// bookkeeping allocations unrelated to the contracts under test.

package bitmap

import "testing"

func requireZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if n := testing.AllocsPerRun(100, fn); n != 0 {
		t.Errorf("%s allocated %.1f times per run, want 0", name, n)
	}
}

func TestHotPathsDoNotAllocate(t *testing.T) {
	a, b := MustNew(1<<10), MustNew(1<<12)
	for i := uint64(0); i < 4000; i += 3 {
		a.Set(i)
		b.Set(i * 7)
	}
	ms := []*Bitmap{a, b}
	dst := MustNew(1 << 12)
	var sinkInt int
	var sinkBool bool
	var sinkFloat float64

	requireZeroAllocs(t, "Set", func() { a.Set(123) })
	requireZeroAllocs(t, "Get", func() { sinkBool = a.Get(123) })
	requireZeroAllocs(t, "AtomicSet", func() { a.AtomicSet(123) })
	requireZeroAllocs(t, "AtomicGet", func() { sinkBool = a.AtomicGet(123) })
	requireZeroAllocs(t, "Ones", func() { sinkInt = a.Ones() })
	requireZeroAllocs(t, "Zeros", func() { sinkInt = a.Zeros() })
	requireZeroAllocs(t, "AtomicOnes", func() { sinkInt = a.AtomicOnes() })
	requireZeroAllocs(t, "FractionZero", func() { sinkFloat = a.FractionZero() })
	requireZeroAllocs(t, "FractionOne", func() { sinkFloat = a.FractionOne() })
	requireZeroAllocs(t, "AtomicFractionOne", func() { sinkFloat = a.AtomicFractionOne() })
	requireZeroAllocs(t, "AndOnes", func() {
		ones, _, err := AndOnes(ms)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	requireZeroAllocs(t, "OrOnes", func() {
		ones, _, err := OrOnes(ms)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	requireZeroAllocs(t, "AndAllInto", func() {
		ones, err := AndAllInto(dst, ms)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	requireZeroAllocs(t, "OrAllInto", func() {
		ones, err := OrAllInto(dst, ms)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})

	_, _, _ = sinkInt, sinkBool, sinkFloat
}

// TestBlockKernelPathsDoNotAllocate steers the fused entry points through
// join's shapes — sub-block pattern alone, a narrow join, pattern
// collapse, and a 33-operand join — and requires zero allocations on all
// of them, mirroring the //ptm:noalloc contracts on the join loop.
func TestBlockKernelPathsDoNotAllocate(t *testing.T) {
	wide := func(n, bitsz int) []*Bitmap {
		ms := make([]*Bitmap, n)
		for i := range ms {
			b := MustNew(bitsz)
			for k := uint64(0); k < uint64(bitsz); k += 3 {
				b.Set(k + uint64(i))
			}
			ms[i] = b
		}
		return ms
	}
	sub := wide(3, 256)                             // < blockWords output → pattern alone
	regs := wide(5, 1<<12)                          // narrow join → joinBlocks
	mixed := append(wide(5, 1<<12), wide(3, 64)...) // sub-block operands → gatherPat collapse
	tiled := wide(33, 1<<12)                        // wide join → joinBlocks
	dst := MustNew(1 << 12)
	var sinkInt int

	for name, ms := range map[string][]*Bitmap{"sub": sub, "regs": regs, "mixed": mixed, "tiled": tiled} {
		ms := ms
		requireZeroAllocs(t, "AndOnes/"+name, func() {
			ones, _, err := AndOnes(ms)
			if err != nil {
				t.Fatal(err)
			}
			sinkInt = ones
		})
		requireZeroAllocs(t, "AndAllInto/"+name, func() {
			ones, err := AndAllInto(dst, ms)
			if err != nil {
				t.Fatal(err)
			}
			sinkInt = ones
		})
	}
	subDst := MustNew(256)
	requireZeroAllocs(t, "OrAllInto/sub natural", func() {
		ones, err := OrAllInto(subDst, sub)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	requireZeroAllocs(t, "OrAllInto/tiled aliased", func() {
		ones, err := OrAllInto(tiled[0], tiled)
		if err != nil {
			t.Fatal(err)
		}
		sinkInt = ones
	})
	_ = sinkInt
}
