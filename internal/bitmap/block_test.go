package bitmap

// Differential tests for the join dispatcher and its three loops
// (fused.go, block.go). TestJoinMatrix pins one row per dispatch arm of
// join:
//
//   - outputs smaller than one block → the collapsed pattern alone
//   - ≤ maxFusedOperands block-sized operands (the pattern counting as
//     one) → joinOnesRegs / joinIntoRegs
//   - wider joins → joinTiled, also driven directly at tile widths of a
//     single block up, so one join crosses many tile boundaries
//
// Every row goes through checkFusedAgainstNaive, which verifies AND and
// OR, count-only and Into (natural, aliased and replicated dst), scratch
// and nil-scratch against the materialized ExpandTo pipeline.

import (
	"errors"
	"math/rand"
	"testing"
)

// randomWideOperands builds an operand list wide enough to overflow the
// register kernels' operand budget: 2..40 bitmaps, sizes 2^6..2^13 bits,
// so lists mix sub-block (64..256-bit) and multi-block operands.
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

// TestBlockKernelsTinyTiles drives joinTiled directly at tile widths from
// a single block to the full stack tile, so one join crosses many tile
// boundaries. Widths of zero and of a non-whole number of blocks must
// clamp and round down to whole blocks.
func TestBlockKernelsTinyTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tw := range []int{0, blockWords, 2 * blockWords, 3*blockWords + 5, 16 * blockWords, tileStackWords} {
		for trial := 0; trial < 20; trial++ {
			checkTiled(t, randomWideOperands(rng), tw)
		}
	}
}

// TestBlockKernelsManyLargeEqual pins the exact register-budget boundary:
// maxFusedOperands-1, maxFusedOperands, maxFusedOperands+1 and more large
// operands, each with and without small ones (the pattern takes a
// register slot, so maxFusedOperands large operands plus small ones
// overflow to joinTiled).
func TestBlockKernelsManyLargeEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	sc := new(JoinScratch)
	for _, nLarge := range []int{maxFusedOperands - 1, maxFusedOperands, maxFusedOperands + 1, 2*maxFusedOperands + 3} {
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

// TestBlockKernelsAliasedWide: a join too wide for the register kernels
// whose dst aliases an operand. joinTiled builds each tile off to the
// side and stores it only after every operand word of the tile is read.
func TestBlockKernelsAliasedWide(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ms := make([]*Bitmap, maxFusedOperands+4)
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

// checkTiled runs joinTiled directly at tile width tw — count-only and
// into a natural, an aliased and a replicated dst — for AND and OR
// against the materialized pipeline.
func checkTiled(t *testing.T, ms []*Bitmap, tw int) {
	t.Helper()
	m, err := MaxSize(ms)
	if err != nil {
		t.Fatalf("MaxSize: %v", err)
	}
	for _, and := range []bool{true, false} {
		var pat [blockWords]uint64
		gatherPat(ms, &pat, and)
		want := naiveJoin(t, ms, m, and)
		if got := joinTiled(nil, m/wordBits, ms, &pat, tw, and); got != want.Ones() {
			t.Fatalf("tw=%d and=%v count-only: ones=%d want=%d", tw, and, got, want.Ones())
		}
		aliased, alias := aliasedOperands(ms, m)
		for _, c := range []struct {
			name string
			dst  *Bitmap
			ms   []*Bitmap
			want *Bitmap
		}{
			{"natural", MustNew(m), ms, want},
			{"aliased", alias, aliased, want},
			{"replicated", MustNew(4 * m), ms, naiveJoin(t, ms, 4*m, and)},
		} {
			got := joinTiled(c.dst.words, len(c.dst.words), c.ms, &pat, tw, and)
			if got != c.want.Ones() || !c.dst.Equal(c.want) {
				t.Fatalf("tw=%d and=%v %s dst: ones=%d want=%d, equal=%v",
					tw, and, c.name, got, c.want.Ones(), c.dst.Equal(c.want))
			}
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

	large := 1 << 12 // 64 words: eight blocks
	rows := []struct {
		name  string
		sizes []int
		tw    int // > 0: also drive joinTiled directly at this tile width
	}{
		{"single operand", []int{large}, 0},
		{"single sub-block operand", []int{256}, 0},
		{"sub-block/2", []int{64, 256}, 0},
		{"sub-block/5", []int{128, 64, 256, 256, 64}, 0},
		{"regs/no pattern", []int{large, 512, 1 << 10, large}, 0},
		{"regs/pattern slot", []int{large, 64, 1 << 10, 256}, 0},
		{"tiled/16 large + small", append(repeat(maxFusedOperands, large), 64, 128), 0},
		{"tiled/33 large", append(repeat(32, large), 1<<10), 0},
		{"joinTiled/tw=1 block", append(repeat(20, large), 512, 128), blockWords},
		{"joinTiled/tw=2 blocks", append(repeat(20, large), 1<<11, 64), 2 * blockWords},
		{"joinTiled/partial last tile", repeat(20, large), 3 * blockWords},
		{"joinTiled/stack tile", append(repeat(18, 1<<19), large, 256), tileStackWords},
		{"tiled/Into aliased", repeat(maxFusedOperands+4, large), 0},
	}
	rng := rand.New(rand.NewSource(29))
	sc := new(JoinScratch)
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			ms := joinOperands(rng, r.sizes...)
			checkFusedAgainstNaive(t, ms, sc)
			if r.tw > 0 {
				checkTiled(t, ms, r.tw)
			}
		})
	}
}

// FuzzFusedJoinWide drives the differential harness with fuzzer-chosen
// wide shapes, and joinTiled directly at a fuzzer-chosen tile width:
// operands of at most 2^13 bits never fill the 32 KiB stack tile, so
// only a narrower tile reaches the tile-boundary logic.
func FuzzFusedJoinWide(f *testing.F) {
	f.Add(uint8(17), uint16(0x0421), uint8(0), uint64(1))
	f.Add(uint8(33), uint16(0xffff), uint8(3), uint64(42))
	f.Add(uint8(40), uint16(0x8001), uint8(7), uint64(99))
	f.Fuzz(func(t *testing.T, nOps uint8, sizeBits uint16, blockExp uint8, seed uint64) {
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
		// One block to 128 blocks (64 B to 8 KiB) per tile.
		checkTiled(t, ms, blockWords<<(int(blockExp)%8))
	})
}
