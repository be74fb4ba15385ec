// The join plane's three loops: two single-pass register kernels and one
// tiled kernel, all at the memory-bandwidth ceiling.
//
// Three structural facts shape them:
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
//  3. AND/OR joins are word-wise, so up to maxFusedOperands operands
//     fold into eight in-register accumulators per block: each output
//     word is computed in registers from one load per operand, then
//     counted (and for joinIntoRegs stored) exactly once. A t-way join
//     streams every operand once and touches the output once, instead
//     of making t read-modify-write passes over dst.
//
// For joins wider than maxFusedOperands the operands fold in windows of
// maxFusedOperands, which would re-stream the output once per window;
// joinTiled instead folds every window into one fixed 32 KiB stack tile
// while it is cache-resident, then counts it and copies it out — the
// output is written to memory once no matter how many operands fold into
// it (DESIGN.md §13).
//
// Every loop is differentially tested against the materialized ExpandTo
// pipeline (fused_test.go, block_test.go, FuzzFusedJoin,
// FuzzFusedJoinWide).

package bitmap

import "math/bits"

const (
	// blockWords is the unroll factor of the inner loops: eight 64-bit
	// accumulators per block, matching the eight-wide register budget of
	// amd64 with room for the per-operand block pointer.
	blockWords = 8

	// maxFusedOperands caps how many operand streams the single-pass
	// register kernels fold per output block. Beyond it the tiled kernel
	// takes over. Sixteen covers every period count the paper evaluates
	// (t ≤ 10) with headroom, and stays within what the hardware
	// prefetchers track as concurrent streams.
	maxFusedOperands = 16

	// tileStackWords is joinTiled's stack-resident tile: 32 KiB, inside
	// any L1d/L2 this code plausibly runs on and far below the compiler's
	// stack-object limit.
	tileStackWords = 4096
)

// gatherPat collapses every operand smaller than one block into a single
// pre-joined block-sized pattern: such an operand's length divides
// blockWords, so its virtual expansion contributes the same blockWords
// words to every aligned block. Returns whether any small operand
// existed (pat is the join identity otherwise).
//
// The emptiness continue is unreachable (New enforces ≥ 64 bits) but
// hands prove the len ≥ 1 fact for the masked index.
//
//ptm:exclusive join plane reads sealed records
//ptm:noalloc
//ptm:nobce
func gatherPat(ms []*Bitmap, pat *[blockWords]uint64, and bool) bool {
	if and {
		for i := range pat {
			pat[i] = ^uint64(0)
		}
	} else {
		for i := range pat {
			pat[i] = 0
		}
	}
	has := false
	for _, o := range ms {
		ow := o.words
		if len(ow) >= blockWords || len(ow) == 0 {
			continue
		}
		has = true
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
	return has
}

// gatherOps collects the block-sized-or-larger operand word slices in
// input order. It reports ok=false when they exceed maxFusedOperands, in
// which case the caller must take joinTiled. The caller (join) appends
// the collapsed small-operand pattern (gatherPat) itself — the pattern
// slice must be formed where pat is a local, or escape analysis
// would see a store of pat's address through a pointer parameter and
// heap-allocate it, breaking the kernels' noalloc contract.
//
// Setup code, not a per-word loop: it runs once per join over t operand
// headers, so it carries the noalloc contract but not nobce (prove
// cannot see the ops[n] store's lower bound through the loop phi, and a
// once-per-operand check costs nothing).
//
//ptm:exclusive join plane reads sealed records
//ptm:noalloc
func gatherOps(ms []*Bitmap, ops *[maxFusedOperands][]uint64) (int, bool) {
	n := 0
	for _, o := range ms {
		if len(o.words) < blockWords {
			continue
		}
		if n >= len(ops) {
			return 0, false
		}
		ops[n] = o.words
		n++
	}
	return n, true
}

// joinOnesRegs is the single-pass count-only kernel: per aligned block
// of eight output words it folds every operand into eight in-register
// accumulators (one load per operand per word, no modular masks — the
// block base off & (len-blockWords) is the whole replication story) and
// fuses the popcount into the same pass. words must be a multiple of
// blockWords; every operand must be at least one block long (gatherOps
// guarantees both — the in-loop guards are unreachable but give prove
// the length facts that discharge every bounds check).
//
//ptm:exclusive join plane reads sealed records
//ptm:noalloc
//ptm:nobce
func joinOnesRegs(words int, ops [][]uint64, and bool) int {
	if len(ops) == 0 {
		return 0
	}
	first := ops[0]
	rest := ops[1:]
	ones := 0
	for off := 0; off+blockWords <= words; off += blockWords {
		var a0, a1, a2, a3, a4, a5, a6, a7 uint64
		if len(first) >= blockWords {
			fb := first[off&(len(first)-blockWords):]
			if len(fb) >= blockWords {
				a0, a1, a2, a3 = fb[0], fb[1], fb[2], fb[3]
				a4, a5, a6, a7 = fb[4], fb[5], fb[6], fb[7]
			}
		}
		if and {
			for _, ow := range rest {
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
			for _, ow := range rest {
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
		ones += bits.OnesCount64(a0) + bits.OnesCount64(a1) +
			bits.OnesCount64(a2) + bits.OnesCount64(a3) +
			bits.OnesCount64(a4) + bits.OnesCount64(a5) +
			bits.OnesCount64(a6) + bits.OnesCount64(a7)
	}
	return ones
}

// joinIntoRegs is joinOnesRegs with the store: each output block is
// computed in registers from one load per operand, stored once, and
// counted in the same pass — dst streams through the cache exactly once
// regardless of the operand count. Because every operand's block is read
// before the block is stored, dst may alias an equal-size operand (the
// only aliasing Go's allocator can produce here).
//
//ptm:exclusive join plane operates on sealed records and a caller-owned dst
//ptm:noalloc
//ptm:nobce
func joinIntoRegs(dw []uint64, ops [][]uint64, and bool) int {
	if len(ops) == 0 {
		return 0
	}
	first := ops[0]
	rest := ops[1:]
	ones := 0
	off := 0
	for rem := dw; len(rem) >= blockWords; rem = rem[blockWords:] {
		blk := rem[:blockWords]
		var a0, a1, a2, a3, a4, a5, a6, a7 uint64
		if len(first) >= blockWords {
			fb := first[off&(len(first)-blockWords):]
			if len(fb) >= blockWords {
				a0, a1, a2, a3 = fb[0], fb[1], fb[2], fb[3]
				a4, a5, a6, a7 = fb[4], fb[5], fb[6], fb[7]
			}
		}
		if and {
			for _, ow := range rest {
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
			for _, ow := range rest {
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
		blk[0], blk[1], blk[2], blk[3] = a0, a1, a2, a3
		blk[4], blk[5], blk[6], blk[7] = a4, a5, a6, a7
		ones += bits.OnesCount64(a0) + bits.OnesCount64(a1) +
			bits.OnesCount64(a2) + bits.OnesCount64(a3) +
			bits.OnesCount64(a4) + bits.OnesCount64(a5) +
			bits.OnesCount64(a6) + bits.OnesCount64(a7)
		off += blockWords
	}
	return ones
}

// foldIntoMs accumulates one window of operands into dst (one tile of
// the full output, whose first word is global word off0), using the same
// 8-way register blocks as joinIntoRegs but reading dst as the partial
// join (the tile was seeded by patFill). Operands smaller than one block
// are skipped — their contribution is already in the seed. dst's length
// must be a multiple of blockWords.
//
//ptm:exclusive join plane operates on sealed records and a caller-owned dst
//ptm:noalloc
//ptm:nobce
func foldIntoMs(dst []uint64, off0 int, ms []*Bitmap, and bool) {
	off := off0
	for rem := dst; len(rem) >= blockWords; rem = rem[blockWords:] {
		blk := rem[:blockWords]
		a0, a1, a2, a3 := blk[0], blk[1], blk[2], blk[3]
		a4, a5, a6, a7 := blk[4], blk[5], blk[6], blk[7]
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
		blk[0], blk[1], blk[2], blk[3] = a0, a1, a2, a3
		blk[4], blk[5], blk[6], blk[7] = a4, a5, a6, a7
		off += blockWords
	}
}

// patFill seeds a tile with the collapsed small-operand pattern
// replicated (every aligned block sees the same pattern, so the seed is
// position-independent). When no small operands exist the pattern is the
// join identity and the seed reduces dst to "fold everything from
// scratch".
//
//ptm:exclusive join plane operates on a caller-owned dst
//ptm:noalloc
//ptm:nobce
func patFill(dst []uint64, pat *[blockWords]uint64) {
	for i := range dst {
		dst[i] = pat[i&(blockWords-1)]
	}
}

// popcountWords counts the one bits of a word slice: joinTiled's tile
// flush (the tile is cache-hot when it runs) and join's sub-block output.
//
//ptm:noalloc
func popcountWords(ws []uint64) int {
	n := 0
	for _, w := range ws {
		n += bits.OnesCount64(w)
	}
	return n
}

// joinTiled is the kernel for joins wider than maxFusedOperands
// block-sized operands. The output is walked in tiles of tw words
// (rounded down to whole blocks, at most tileStackWords), each built in a
// stack-resident buffer: seeded with the collapsed small-operand pattern
// (the join identity when none exist), folded with every window of
// maxFusedOperands operands while L1-hot, counted, and — when dst is
// non-nil — copied out to dst. Every operand word of a tile is read
// before the tile is stored, so dst may alias an equal-size operand.
// words is a power of two no smaller than any operand (below blockWords
// every operand is sub-block and the seeded tile is already the join);
// dst is nil or has words words.
// join passes tw = tileStackWords; tests pass smaller tiles to cross many
// tile boundaries.
//
// The slice-window forms (sub = sub[:remWords] under a direct len
// comparison, rest consumed by branch-local reslicing, dst advanced
// under a len guard) are what lets the prove pass discharge every bounds
// check; arithmetic n := words - base forms do not.
//
//ptm:exclusive join plane operates on sealed records and a caller-owned dst
//ptm:noalloc
//ptm:nobce
func joinTiled(dst []uint64, words int, ms []*Bitmap, pat *[blockWords]uint64, tw int, and bool) int {
	var tile [tileStackWords]uint64
	tw &^= blockWords - 1
	if tw < blockWords {
		tw = blockWords
	}
	ones := 0
	base := 0
	for remWords := words; remWords > 0; {
		sub := tile[:]
		if len(sub) > remWords {
			sub = sub[:remWords]
		}
		if len(sub) > tw {
			sub = sub[:tw]
		}
		patFill(sub, pat)
		for rest := ms; len(rest) > 0; {
			c := rest
			if len(rest) > maxFusedOperands {
				c = rest[:maxFusedOperands]
				rest = rest[maxFusedOperands:]
			} else {
				rest = nil
			}
			foldIntoMs(sub, base, c, and)
		}
		ones += popcountWords(sub)
		if len(dst) >= len(sub) {
			copy(dst, sub)
			dst = dst[len(sub):]
		}
		base += len(sub)
		remWords -= len(sub)
	}
	return ones
}
