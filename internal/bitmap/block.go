// The join plane's one loop, at the memory-bandwidth ceiling.
//
// Three structural facts shape it:
//
//  1. Every bitmap length is a power of two ≥ 64 bits, so a join output
//     of `words` ≥ blockWords words decomposes into aligned blocks of
//     blockWords words, and for any operand of w ≥ blockWords words, an
//     aligned block offset off (a multiple of blockWords) satisfies
//     off mod w = off & (w-blockWords): the operand's contribution to a
//     block is one *contiguous* run of blockWords words. Replication
//     indexing inside a block is therefore plain slice-offset
//     arithmetic — no per-word modular mask in the inner loop.
//  2. Operands *smaller* than one block divide blockWords, so their
//     virtual expansion restricted to any aligned block is the same
//     blockWords-word pattern every time (off mod w = 0). All such
//     operands collapse, before the main loop, into one pre-joined
//     block-sized pattern (gatherPat) — equal-length grouping taken to
//     its limit.
//  3. AND/OR joins are word-wise, so every operand folds into eight
//     in-register accumulators per block, however many operands there
//     are: each output word is computed in registers from one load per
//     operand, then counted (and, with a dst, stored) exactly once. A
//     t-way join streams every operand once and touches the output once,
//     instead of making t read-modify-write passes over dst.
//
// The loop is differentially tested against the materialized ExpandTo
// pipeline (fused_test.go, block_test.go, FuzzFusedJoin,
// FuzzFusedJoinWide).

package bitmap

import "math/bits"

// blockWords is the unroll factor of the inner loop: eight 64-bit
// accumulators per block, matching the eight-wide register budget of
// amd64 with room for the per-operand block pointer.
const blockWords = 8

// gatherPat collapses every operand smaller than one block into a single
// pre-joined block-sized pattern: such an operand's length divides
// blockWords, so its virtual expansion contributes the same blockWords
// words to every aligned block. With no small operand, pat is the join
// identity.
//
// The emptiness continue is unreachable (New enforces ≥ 64 bits) but
// hands prove the len ≥ 1 fact for the masked index.
//
//ptm:exclusive join plane reads sealed records
//ptm:noalloc
//ptm:nobce
func gatherPat(ms []*Bitmap, pat *[blockWords]uint64, and bool) {
	if and {
		for i := range pat {
			pat[i] = ^uint64(0)
		}
	} else {
		for i := range pat {
			pat[i] = 0
		}
	}
	for _, o := range ms {
		ow := o.words
		if len(ow) >= blockWords || len(ow) == 0 {
			continue
		}
		mask := len(ow) - 1
		if and {
			for i := range pat {
				pat[i] &= ow[i&mask]
			}
		} else {
			for i := range pat {
				pat[i] |= ow[i&mask]
			}
		}
	}
}

// popcountWords counts the one bits of a word slice: join's sub-block
// output.
//
//ptm:noalloc
func popcountWords(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// joinBlocks is the join loop. Per aligned block of eight output words
// it seeds eight register accumulators with the collapsed sub-block
// pattern pat, folds in every block-sized operand of ms (one load per
// operand per word; the block base off & (len-blockWords) is the whole
// replication story), counts the block and, when dst is non-nil, stores
// it. words is a multiple of blockWords no smaller than any operand; dst
// is nil or has words words. Every operand word of a block is read
// before the block is stored, so dst may alias an equal-size operand
// (the only aliasing Go's allocator can produce here).
//
// The in-loop length guards skip sub-block operands (already in pat) and
// are otherwise unreachable, but they give prove the length facts that
// discharge every bounds check; dst advances under a len guard for the
// same reason.
//
//ptm:exclusive join plane operates on sealed records and a caller-owned dst
//ptm:noalloc
//ptm:nobce
func joinBlocks(dst []uint64, words int, ms []*Bitmap, pat *[blockWords]uint64, and bool) int {
	ones := 0
	for off := 0; off+blockWords <= words; off += blockWords {
		a0, a1, a2, a3 := pat[0], pat[1], pat[2], pat[3]
		a4, a5, a6, a7 := pat[4], pat[5], pat[6], pat[7]
		if and {
			for _, o := range ms {
				ow := o.words
				if len(ow) < blockWords {
					continue
				}
				ob := ow[off&(len(ow)-blockWords):]
				if len(ob) < blockWords {
					continue
				}
				a0 &= ob[0]
				a1 &= ob[1]
				a2 &= ob[2]
				a3 &= ob[3]
				a4 &= ob[4]
				a5 &= ob[5]
				a6 &= ob[6]
				a7 &= ob[7]
			}
		} else {
			for _, o := range ms {
				ow := o.words
				if len(ow) < blockWords {
					continue
				}
				ob := ow[off&(len(ow)-blockWords):]
				if len(ob) < blockWords {
					continue
				}
				a0 |= ob[0]
				a1 |= ob[1]
				a2 |= ob[2]
				a3 |= ob[3]
				a4 |= ob[4]
				a5 |= ob[5]
				a6 |= ob[6]
				a7 |= ob[7]
			}
		}
		if len(dst) >= blockWords {
			blk := dst[:blockWords]
			blk[0], blk[1], blk[2], blk[3] = a0, a1, a2, a3
			blk[4], blk[5], blk[6], blk[7] = a4, a5, a6, a7
			dst = dst[blockWords:]
		}
		ones += bits.OnesCount64(a0) + bits.OnesCount64(a1) +
			bits.OnesCount64(a2) + bits.OnesCount64(a3) +
			bits.OnesCount64(a4) + bits.OnesCount64(a5) +
			bits.OnesCount64(a6) + bits.OnesCount64(a7)
	}
	return ones
}
