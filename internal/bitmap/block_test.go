package bitmap

// Differential tests for the join plane (fused.go, block.go): join's two
// cases — an output smaller than one block, which is the collapsed
// pattern alone, and the one loop joinBlocks for everything else — over
// narrow and wide operand lists, sub-block and multi-block operands, and
// aliased and replicated outputs. TestJoinMatrix pins one row per shape.
//
// Every row goes through checkFusedAgainstNaive, which verifies AND and
// OR, count-only and Into (natural, aliased and replicated dst), scratch
// and nil-scratch against the materialized ExpandTo pipeline.

import (
	"errors"
	"math/rand"
	"testing"
)

// randomWideOperands builds a narrow to wide operand list: 2..40
// bitmaps, sizes 2^6..2^13 bits, so lists mix sub-block (64..256-bit)
// and multi-block operands.
func randomWideOperands(rng *rand.Rand) []*Bitmap {
	t := 2 + rng.Intn(39)
	ms := make([]*Bitmap, t)
	for i := range ms {
		size := 64 << rng.Intn(8) // 2^6 .. 2^13
		b := MustNew(size)
		// Density high enough that deep ANDs stay nonzero sometimes.
		for k := 0; k < size; k++ {
			if rng.Intn(3) > 0 {
				b.Set(uint64(k))
			}
		}
		ms[i] = b
	}
	return ms
}

func TestBlockKernelsWideDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	sc := new(JoinScratch)
	for trial := 0; trial < 60; trial++ {
		checkFusedAgainstNaive(t, randomWideOperands(rng), sc)
	}
}

// TestBlockKernelsManyLargeEqual joins 15, 16, 17 and 35 large operands
// of one size, each with and without small ones folded into the pattern
// that seeds every block.
func TestBlockKernelsManyLargeEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := new(JoinScratch)
	for _, nLarge := range []int{15, 16, 17, 35} {
		for _, nSmall := range []int{0, 1, 3} {
			ms := make([]*Bitmap, 0, nLarge+nSmall)
			for i := 0; i < nLarge; i++ {
				b := MustNew(1 << 12)
				for k := 0; k < b.Size(); k++ {
					if rng.Intn(4) > 0 {
						b.Set(uint64(k))
					}
				}
				ms = append(ms, b)
			}
			for i := 0; i < nSmall; i++ {
				b := MustNew(64 << (i % 3)) // 64, 128, 256 bits: all sub-block
				for k := 0; k < b.Size(); k++ {
					if rng.Intn(2) == 0 {
						b.Set(uint64(k))
					}
				}
				ms = append(ms, b)
			}
			checkFusedAgainstNaive(t, ms, sc)
		}
	}
}

// TestBlockKernelsAliasedWide: a 20-operand join whose dst aliases an
// operand. joinBlocks reads every operand word of a block before it
// stores the block.
func TestBlockKernelsAliasedWide(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ms := make([]*Bitmap, 20)
	for i := range ms {
		b := MustNew(1 << 12)
		for k := 0; k < b.Size(); k++ {
			if rng.Intn(4) > 0 {
				b.Set(uint64(k))
			}
		}
		ms[i] = b
	}
	for _, and := range []bool{true, false} {
		want := naiveJoin(t, ms, 1<<12, and)
		dst := ms[rng.Intn(len(ms))]
		var ones int
		var err error
		if and {
			ones, err = AndAllInto(dst, ms)
		} else {
			ones, err = OrAllInto(dst, ms)
		}
		if err != nil {
			t.Fatal(err)
		}
		if ones != want.Ones() || !dst.Equal(want) {
			t.Fatalf("aliased wide join (and=%v): ones=%d want=%d equal=%v",
				and, ones, want.Ones(), dst.Equal(want))
		}
		// dst is now the join, not the original operand; rebuild it for
		// the OR round.
		if and {
			fresh := MustNew(1 << 12)
			for k := 0; k < fresh.Size(); k++ {
				if rng.Intn(4) > 0 {
					fresh.Set(uint64(k))
				}
			}
			copy(dst.words, fresh.words)
		}
	}
}

// joinOperands builds one operand per size with ~7/8 density, so deep
// AND joins stay nonzero.
func joinOperands(rng *rand.Rand, sizes ...int) []*Bitmap {
	ms := make([]*Bitmap, len(sizes))
	for i, n := range sizes {
		b := MustNew(n)
		for j := range b.words {
			b.words[j] = rng.Uint64() | rng.Uint64() | rng.Uint64()
		}
		ms[i] = b
	}
	return ms
}

// repeat returns n copies of size.
func repeat(n, size int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = size
	}
	return out
}

func TestJoinMatrix(t *testing.T) {
	invalid := []struct {
		name string
		run  func() error
		want error
	}{
		{"empty/AndOnes", func() error { _, _, err := AndOnes(nil); return err }, ErrJoinEmpty},
		{"empty/OrOnes", func() error { _, _, err := OrOnes([]*Bitmap{}); return err }, ErrJoinEmpty},
		{"empty/AndAllInto", func() error { _, err := AndAllInto(MustNew(512), nil); return err }, ErrJoinEmpty},
		{"empty/scratch", func() error { _, _, err := new(JoinScratch).OrAll(nil); return err }, ErrJoinEmpty},
		{"dst smaller than operand", func() error {
			_, err := OrAllInto(MustNew(256), []*Bitmap{MustNew(64), MustNew(512)})
			return err
		}, ErrShrink},
	}
	for _, c := range invalid {
		if err := c.run(); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}

	// Row names are kept as stable test IDs across commits, so their
	// regs/, tiled/ and joinTiled/ prefixes are labels for narrow (≤ 16
	// block-sized operands) and wide shapes, not loops: every row runs
	// joinBlocks, or the pattern alone.
	large := 1 << 12 // 64 words: eight blocks
	rows := []struct {
		name  string
		sizes []int
	}{
		{"single operand", []int{large}},
		{"single sub-block operand", []int{256}},
		{"sub-block/2", []int{64, 256}},
		{"sub-block/5", []int{128, 64, 256, 256, 64}},
		{"regs/no pattern", []int{large, 512, 1 << 10, large}},
		{"regs/pattern slot", []int{large, 64, 1 << 10, 256}},
		{"tiled/16 large + small", append(repeat(16, large), 64, 128)},
		{"tiled/33 large", append(repeat(32, large), 1<<10)},
		{"joinTiled/tw=1 block", append(repeat(20, large), 512, 128)},
		{"joinTiled/tw=2 blocks", append(repeat(20, large), 1<<11, 64)},
		{"joinTiled/partial last tile", repeat(20, large)},
		{"joinTiled/stack tile", append(repeat(18, 1<<19), large, 256)},
		{"tiled/Into aliased", repeat(20, large)},
	}
	rng := rand.New(rand.NewSource(29))
	sc := new(JoinScratch)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			checkFusedAgainstNaive(t, joinOperands(rng, r.sizes...), sc)
		})
	}
}

// FuzzFusedJoinWide drives the differential harness with fuzzer-chosen
// shapes of 1 to 40 operands, each 2^6 to 2^13 bits.
func FuzzFusedJoinWide(f *testing.F) {
	f.Add(uint8(17), uint16(0x0421), uint64(1))
	f.Add(uint8(33), uint16(0xffff), uint64(42))
	f.Add(uint8(40), uint16(0x8001), uint64(99))
	f.Fuzz(func(t *testing.T, nOps uint8, sizeBits uint16, seed uint64) {
		n := int(nOps)%40 + 1
		rng := rand.New(rand.NewSource(int64(seed)))
		ms := make([]*Bitmap, n)
		for i := range ms {
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
