// Fused joins: AND/OR joins of mixed-size bitmaps without materializing
// the Section III-A expansions, through one dispatcher.
//
// The replication expansion has a structural consequence the naive
// ExpandTo pipeline ignores: for an l-bit bitmap b and any power-of-two
// m >= l, ExpandTo(m) repeats b's words m/l times, so expansion word i
// equals b.words[i mod (l/64)]. l/64 is a power of two (New enforces
// l >= 64 and power-of-two l — the same invariant the pow2size lint rule
// protects), hence
//
//	expanded.words[i] == b.words[i & (len(b.words)-1)]
//
// (DESIGN.md §8). A join of mixed-size operands can therefore stream over
// the words of the *largest* operand, reading each smaller operand
// through that mask — no expansion buffer exists at any point. The
// estimators of internal/core consume only the zero/one fractions of
// joined bitmaps, so the kernels also fuse the bits.OnesCount64
// reduction into the same pass: each output word is computed, counted,
// and (for the Into variants) stored exactly once.
//
// Every entry point below validates and then calls join, which picks one
// of three loops (block.go): the register kernels joinOnesRegs and
// joinIntoRegs for up to maxFusedOperands block-sized operands, and
// joinTiled for wider joins. All of them are differentially tested
// against the materialized ExpandTo/And/Or/Ones pipeline (fused_test.go,
// block_test.go, FuzzFusedJoin, FuzzFusedJoinWide).

package bitmap

import (
	"errors"
	"fmt"
)

// ErrJoinEmpty is returned by the join kernels for an empty operand list.
var ErrJoinEmpty = errors.New("bitmap: join of zero bitmaps")

// MaxSize returns the largest Size among the operands, the common join
// size m of Section III-A. It returns ErrJoinEmpty for an empty list.
//
//ptm:noalloc
func MaxSize(ms []*Bitmap) (int, error) {
	if len(ms) == 0 {
		return 0, ErrJoinEmpty
	}
	m := 0
	for _, b := range ms {
		if b.Size() > m {
			m = b.Size()
		}
	}
	return m, nil
}

// AndOnes returns the number of one bits in AndAll(ms) — the AND-join of
// the operands virtually expanded to the largest size m — together with m
// itself, without allocating anything. This is the fused kernel behind
// the V1 and V0 fractions of Eqs. (8) and (12).
//
//ptm:noalloc
//ptm:inline
func AndOnes(ms []*Bitmap) (ones, m int, err error) {
	return joinOnes(ms, true)
}

// OrOnes is AndOnes for the OR join (the second-level join of
// Section IV-A).
//
//ptm:noalloc
//ptm:inline
func OrOnes(ms []*Bitmap) (ones, m int, err error) {
	return joinOnes(ms, false)
}

//ptm:noalloc
func joinOnes(ms []*Bitmap, and bool) (ones, m int, err error) {
	m, err = MaxSize(ms)
	if err != nil {
		return 0, 0, err
	}
	return join(nil, m/wordBits, ms, and), m, nil
}

// AndAllInto computes the AND-join of the operands, virtually expanded to
// dst's size, into dst, and returns the join's popcount from the same
// pass. dst must be at least as large as every operand (expansion of the
// join commutes with the join of expansions, so a larger dst holds the
// join replicated). dst may alias an operand of equal size — every
// operand word of an output block or tile is read before it is stored —
// but must not alias a smaller operand (impossible anyway: sizes differ).
//
//ptm:sink bitmap write
//ptm:noalloc
//ptm:inline
func AndAllInto(dst *Bitmap, ms []*Bitmap) (ones int, err error) {
	return joinInto(dst, ms, true)
}

// OrAllInto is AndAllInto for the OR join.
//
//ptm:sink bitmap write
//ptm:noalloc
//ptm:inline
func OrAllInto(dst *Bitmap, ms []*Bitmap) (ones int, err error) {
	return joinInto(dst, ms, false)
}

//ptm:exclusive join plane operates on sealed records and a caller-owned dst
//ptm:noalloc
func joinInto(dst *Bitmap, ms []*Bitmap, and bool) (ones int, err error) {
	m, err := MaxSize(ms)
	if err != nil {
		return 0, err
	}
	if dst.nbits < m {
		return 0, fmt.Errorf("%w: dst %d < operand %d", ErrShrink, dst.nbits, m)
	}
	return join(dst.words, len(dst.words), ms, and), nil
}

// join is the one dispatcher of the join plane (DESIGN.md §13). It joins
// the non-empty operand list virtually expanded to words words, stores
// the result into dst unless dst is nil (count-only), and returns its
// popcount. dst, when non-nil, has exactly words words; words is a power
// of two no smaller than any operand.
//
// Operands smaller than one block collapse into one pre-joined pattern
// block first (gatherPat). An output smaller than one block has only
// such operands, so the pattern's first words are the whole join.
// Otherwise up to maxFusedOperands block-sized operands — counting the
// pattern as one when it exists — fold in the register kernels, and
// anything wider takes the tiled kernel.
//
// The pattern slice ops[n] = pat[:] is formed here, where pat is a
// local: forming it through a pointer parameter would heap-allocate pat
// (see gatherOps).
//
//ptm:exclusive join plane operates on sealed records and a caller-owned dst
//ptm:noalloc
func join(dst []uint64, words int, ms []*Bitmap, and bool) int {
	var ops [maxFusedOperands][]uint64
	var pat [blockWords]uint64
	n, ok := gatherOps(ms, &ops)
	hasPat := gatherPat(ms, &pat, and)
	if words < blockWords {
		copy(dst, pat[:words])
		return popcountWords(pat[:words])
	}
	if ok && hasPat {
		if n == len(ops) {
			ok = false
		} else {
			ops[n] = pat[:]
			n++
		}
	}
	switch {
	case !ok:
		return joinTiled(dst, words, ms, &pat, tileStackWords, and)
	case dst == nil:
		return joinOnesRegs(words, ops[:n], and)
	default:
		return joinIntoRegs(dst, ops[:n], and)
	}
}

// JoinScratch is a reusable arena for join outputs. A pipeline leases
// output bitmaps with AndAll/OrAll, consumes them, and calls Reset; the
// next cycle reuses the same backing storage, so steady-state join
// pipelines (the ~1000-trial evaluation cells, the daemon's query loop)
// allocate nothing. Leased bitmaps are valid only until the next Reset.
//
// The zero value is ready to use. A nil *JoinScratch is also valid: every
// lease falls back to a fresh allocation, which lets one code path serve
// both the scratch-backed hot loop and one-shot callers.
//
// A JoinScratch is not safe for concurrent use; give each worker its own.
type JoinScratch struct {
	slots []*Bitmap
	used  int
}

// Reset invalidates all leased bitmaps and makes their storage available
// for reuse. Contents are not cleared; every kernel overwrites each word.
func (s *JoinScratch) Reset() {
	if s != nil {
		s.used = 0
	}
}

// lease returns an n-bit bitmap backed by the scratch (or freshly
// allocated for a nil receiver). Its contents are unspecified; callers
// must overwrite every word before reading.
//
//ptm:exclusive scratch arenas are single-owner by contract
func (s *JoinScratch) lease(n int) (*Bitmap, error) {
	if s == nil {
		return New(n)
	}
	if n < wordBits || n > MaxBits {
		return nil, fmt.Errorf("%w: %d not in [%d, %d]", ErrSizeOutOfRange, n, wordBits, MaxBits)
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("%w: %d", ErrSizeNotPowerOfTwo, n)
	}
	if s.used < len(s.slots) {
		b := s.slots[s.used]
		if words := n / wordBits; cap(b.words) < words {
			b.words = make([]uint64, words)
		} else {
			b.words = b.words[:words]
		}
		b.nbits = n
		s.used++
		return b, nil
	}
	b, err := New(n)
	if err != nil {
		return nil, err
	}
	s.slots = append(s.slots, b)
	s.used++
	return b, nil
}

// AndAll AND-joins the operands into a scratch-leased bitmap of the
// common size m and returns it with its popcount. The result is valid
// until the next Reset.
func (s *JoinScratch) AndAll(ms []*Bitmap) (*Bitmap, int, error) {
	return s.joinAll(ms, true)
}

// OrAll is AndAll for the OR join.
func (s *JoinScratch) OrAll(ms []*Bitmap) (*Bitmap, int, error) {
	return s.joinAll(ms, false)
}

// AndAllTo is AndAll with an explicit output size n >= the largest
// operand; the join is produced replicated to n bits (Section III-A
// expansion of the joined result). JoinPoint uses it to keep E_a and E_b
// at the common size m even when the largest record fell in the other
// subset.
func (s *JoinScratch) AndAllTo(n int, ms []*Bitmap) (*Bitmap, int, error) {
	return s.joinAllTo(n, ms, true)
}

// OrAllTo is AndAllTo for the OR join.
func (s *JoinScratch) OrAllTo(n int, ms []*Bitmap) (*Bitmap, int, error) {
	return s.joinAllTo(n, ms, false)
}

func (s *JoinScratch) joinAll(ms []*Bitmap, and bool) (*Bitmap, int, error) {
	m, err := MaxSize(ms)
	if err != nil {
		return nil, 0, err
	}
	return s.joinAllTo(m, ms, and)
}

func (s *JoinScratch) joinAllTo(n int, ms []*Bitmap, and bool) (*Bitmap, int, error) {
	if len(ms) == 0 {
		return nil, 0, ErrJoinEmpty
	}
	dst, err := s.lease(n)
	if err != nil {
		return nil, 0, err
	}
	ones, err := joinInto(dst, ms, and)
	if err != nil {
		return nil, 0, err
	}
	return dst, ones, nil
}
