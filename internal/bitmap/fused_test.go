package bitmap

// Differential tests for the fused join kernels: every kernel must be
// bit-exact and count-exact against the naive materialize-then-join
// pipeline (ExpandTo + And/Or + Ones) for arbitrary operand counts,
// sizes, and contents. The naive pipeline is the reference implementation
// the kernels are allowed to replace only because these tests (and
// FuzzFusedJoin) hold.

import (
	"math/rand"
	"testing"
)

// naiveJoin is the materialized reference pipeline: expand every operand
// to the target size, then fold with op.
func naiveJoin(t *testing.T, ms []*Bitmap, n int, and bool) *Bitmap {
	t.Helper()
	first, err := ms[0].ExpandTo(n)
	if err != nil {
		t.Fatalf("ExpandTo(%d): %v", n, err)
	}
	out := first.Clone()
	for _, b := range ms[1:] {
		e, err := b.ExpandTo(n)
		if err != nil {
			t.Fatalf("ExpandTo(%d): %v", n, err)
		}
		if and {
			err = out.And(e)
		} else {
			err = out.Or(e)
		}
		if err != nil {
			t.Fatalf("join: %v", err)
		}
	}
	return out
}

// randomOperands builds 1..6 bitmaps with random power-of-two sizes and
// random density, deliberately mixing sizes to exercise the virtual
// expansion.
func randomOperands(rng *rand.Rand) []*Bitmap {
	t := 1 + rng.Intn(6)
	ms := make([]*Bitmap, t)
	for i := range ms {
		size := 64 << rng.Intn(7) // 2^6 .. 2^12
		b := MustNew(size)
		nset := rng.Intn(size + 1)
		for k := 0; k < nset; k++ {
			b.Set(rng.Uint64())
		}
		ms[i] = b
	}
	return ms
}

// aliasedOperands returns a copy of ms whose first m-bit operand is
// replaced by a clone, together with that clone: a dst aliasing an
// operand that a join may overwrite without disturbing ms.
func aliasedOperands(ms []*Bitmap, m int) ([]*Bitmap, *Bitmap) {
	out := append([]*Bitmap(nil), ms...)
	for i, b := range out {
		if b.Size() == m {
			out[i] = b.Clone()
			return out, out[i]
		}
	}
	panic("no operand of the join size")
}

// checkFusedAgainstNaive checks every join entry point on ms — count-only,
// Into a natural, an aliased and a replicated dst, scratch-leased — for
// AND and OR against the materialized pipeline.
func checkFusedAgainstNaive(t *testing.T, ms []*Bitmap, sc *JoinScratch) {
	t.Helper()
	m, err := MaxSize(ms)
	if err != nil {
		t.Fatalf("MaxSize: %v", err)
	}
	for _, and := range []bool{true, false} {
		name := map[bool]string{true: "and", false: "or"}[and]
		want := naiveJoin(t, ms, m, and)
		wantOnes := want.Ones()

		// Count-only kernels.
		ones, gotM, err := AndOnes(ms)
		if !and {
			ones, gotM, err = OrOnes(ms)
		}
		if err != nil {
			t.Fatalf("%sOnes: %v", name, err)
		}
		if gotM != m || ones != wantOnes {
			t.Fatalf("%sOnes = (%d, %d), want (%d, %d)", name, ones, gotM, wantOnes, m)
		}

		// Materializing kernels, at the natural size m.
		dst := MustNew(m)
		if and {
			ones, err = AndAllInto(dst, ms)
		} else {
			ones, err = OrAllInto(dst, ms)
		}
		if err != nil {
			t.Fatalf("%sAllInto: %v", name, err)
		}
		if ones != wantOnes || !dst.Equal(want) {
			t.Fatalf("%sAllInto: ones=%d want=%d, equal=%v", name, ones, wantOnes, dst.Equal(want))
		}

		// Into a dst aliasing an equal-size operand (the in-place
		// discipline of And/Or).
		aliased, dst := aliasedOperands(ms, m)
		if and {
			ones, err = AndAllInto(dst, aliased)
		} else {
			ones, err = OrAllInto(dst, aliased)
		}
		if err != nil {
			t.Fatalf("aliased %sAllInto: %v", name, err)
		}
		if ones != wantOnes || !dst.Equal(want) {
			t.Fatalf("aliased %sAllInto: ones=%d want=%d, equal=%v", name, ones, wantOnes, dst.Equal(want))
		}

		// Into a larger destination: the join must come out replicated,
		// i.e. equal to the naive join expanded to the larger size.
		big := MustNew(4 * m)
		if and {
			ones, err = AndAllInto(big, ms)
		} else {
			ones, err = OrAllInto(big, ms)
		}
		if err != nil {
			t.Fatalf("%sAllInto(4m): %v", name, err)
		}
		wantBig := naiveJoin(t, ms, 4*m, and)
		if ones != wantBig.Ones() || !big.Equal(wantBig) {
			t.Fatalf("%sAllInto(4m): ones=%d want=%d, equal=%v", name, ones, wantBig.Ones(), big.Equal(wantBig))
		}

		// Scratch-leased kernels (both a shared scratch and nil).
		for _, s := range []*JoinScratch{sc, nil} {
			s.Reset()
			var got *Bitmap
			if and {
				got, ones, err = s.AndAll(ms)
			} else {
				got, ones, err = s.OrAll(ms)
			}
			if err != nil {
				t.Fatalf("scratch %sAll: %v", name, err)
			}
			if ones != wantOnes || !got.Equal(want) {
				t.Fatalf("scratch %sAll: ones=%d want=%d, equal=%v", name, ones, wantOnes, got.Equal(want))
			}
			if and {
				got, ones, err = s.AndAllTo(4*m, ms)
			} else {
				got, ones, err = s.OrAllTo(4*m, ms)
			}
			if err != nil {
				t.Fatalf("scratch %sAllTo: %v", name, err)
			}
			wantBig := naiveJoin(t, ms, 4*m, and)
			if ones != wantBig.Ones() || !got.Equal(wantBig) {
				t.Fatalf("scratch %sAllTo: ones=%d, equal=%v", name, ones, got.Equal(wantBig))
			}
		}
	}
}

func TestFusedKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sc := new(JoinScratch)
	for trial := 0; trial < 300; trial++ {
		checkFusedAgainstNaive(t, randomOperands(rng), sc)
	}
}

func TestFusedSingleOperand(t *testing.T) {
	b := MustNew(256)
	for _, i := range []uint64{0, 63, 64, 200, 255} {
		b.Set(i)
	}
	ones, m, err := AndOnes([]*Bitmap{b})
	if err != nil || ones != b.Ones() || m != 256 {
		t.Fatalf("AndOnes single = (%d, %d, %v), want (%d, 256, nil)", ones, m, err, b.Ones())
	}
	ones, m, err = OrOnes([]*Bitmap{b})
	if err != nil || ones != b.Ones() || m != 256 {
		t.Fatalf("OrOnes single = (%d, %d, %v)", ones, m, err)
	}
	// A single operand into a larger dst is a pure replication.
	dst := MustNew(1024)
	if _, err := OrAllInto(dst, []*Bitmap{b}); err != nil {
		t.Fatal(err)
	}
	want, err := b.ExpandTo(1024)
	if err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(want) {
		t.Fatal("single-operand OrAllInto is not the replication expansion")
	}
}

func TestFusedErrors(t *testing.T) {
	if _, _, err := AndOnes(nil); err == nil {
		t.Fatal("AndOnes(nil) should fail")
	}
	if _, _, err := OrOnes([]*Bitmap{}); err == nil {
		t.Fatal("OrOnes(empty) should fail")
	}
	if _, err := MaxSize(nil); err == nil {
		t.Fatal("MaxSize(nil) should fail")
	}
	big, small := MustNew(512), MustNew(64)
	if _, err := AndAllInto(small, []*Bitmap{big}); err == nil {
		t.Fatal("AndAllInto into a smaller dst should fail")
	}
	if _, err := OrAllInto(small, []*Bitmap{small, big}); err == nil {
		t.Fatal("OrAllInto into a smaller dst should fail")
	}
	var sc *JoinScratch
	if _, _, err := sc.AndAll(nil); err == nil {
		t.Fatal("nil-scratch AndAll(empty) should fail")
	}
	s := new(JoinScratch)
	if _, _, err := s.AndAllTo(32, []*Bitmap{small}); err == nil {
		t.Fatal("AndAllTo with an invalid size should fail")
	}
	if _, _, err := s.OrAllTo(96, []*Bitmap{small}); err == nil {
		t.Fatal("OrAllTo with a non-power-of-two size should fail")
	}
}

// TestFusedAliasing: dst may alias an equal-size operand, matching the
// in-place discipline of And/Or.
func TestFusedAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, b := MustNew(512), MustNew(128)
	for i := 0; i < 300; i++ {
		a.Set(rng.Uint64())
		b.Set(rng.Uint64())
	}
	want := naiveJoin(t, []*Bitmap{a, b}, 512, true)
	ones, err := AndAllInto(a, []*Bitmap{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if ones != want.Ones() || !a.Equal(want) {
		t.Fatal("aliased AndAllInto differs from the materialized join")
	}
}

// TestJoinScratchReuse verifies the arena discipline: leases after Reset
// reuse the same backing storage, and results are stable across cycles.
func TestJoinScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ms := randomOperands(rng)
	sc := new(JoinScratch)
	first, firstOnes, err := sc.AndAll(ms)
	if err != nil {
		t.Fatal(err)
	}
	firstWords := &first.words[0]
	firstClone := first.Clone()
	sc.Reset()
	second, secondOnes, err := sc.AndAll(ms)
	if err != nil {
		t.Fatal(err)
	}
	if &second.words[0] != firstWords {
		t.Fatal("scratch did not reuse backing storage after Reset")
	}
	if secondOnes != firstOnes || !second.Equal(firstClone) {
		t.Fatal("scratch-backed join not stable across Reset cycles")
	}
	// Growing lease: a larger request after Reset reallocates that slot
	// but stays correct.
	sc.Reset()
	big := MustNew(1 << 14)
	big.Set(12345)
	got, ones, err := sc.OrAll([]*Bitmap{big, ms[0]})
	if err != nil {
		t.Fatal(err)
	}
	want := naiveJoin(t, []*Bitmap{big, ms[0]}, 1<<14, false)
	if ones != want.Ones() || !got.Equal(want) {
		t.Fatal("grown scratch lease produced a wrong join")
	}
}

// FuzzFusedJoin drives the differential harness from fuzzer-chosen
// operand shapes and contents.
func FuzzFusedJoin(f *testing.F) {
	f.Add(uint8(1), uint16(0), uint64(1))
	f.Add(uint8(3), uint16(0x0421), uint64(42))
	f.Add(uint8(6), uint16(0xffff), uint64(99))
	f.Fuzz(func(t *testing.T, nOps uint8, sizeBits uint16, seed uint64) {
		n := int(nOps)%6 + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		ms := make([]*Bitmap, n)
		for i := range ms {
			// 3 bits of sizeBits per operand select 2^6..2^13.
			exp := int(sizeBits>>(3*uint(i%5))) & 7
			b := MustNew(64 << exp)
			for k := rng.Intn(b.Size() + 1); k > 0; k-- {
				b.Set(rng.Uint64())
			}
			ms[i] = b
		}
		checkFusedAgainstNaive(t, ms, new(JoinScratch))
	})
}
