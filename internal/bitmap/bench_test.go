package bitmap

// Benchmarks comparing the materialized join pipeline (ExpandTo + AndAll)
// against the fused kernels, across the record sizes and period counts of
// the paper's evaluation. Run with `go test -run=NONE -bench=.
// ./internal/bitmap/`.
//
// Join benchmarks report throughput via b.SetBytes as *operand bytes
// folded per op*: the kernel touches words(m) output positions and folds
// t operand words into each, so one op processes 8·words·t bytes (+
// 8·words store traffic for the Into variants). That is the same
// per-word unit BenchmarkBandwidthBaseline/popcount reports, so the
// kernels' bytes/ns divided by the baseline's is the fraction of the
// machine's streaming ceiling the join plane reaches (MB/s in the
// output is bytes per µs).

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// benchOperands builds t records: one at m bits and the rest at m/16
// (Table I's typical m'/m ratio), each at load factor ~2.
func benchOperands(m, t int) []*Bitmap {
	rng := rand.New(rand.NewSource(1))
	ms := make([]*Bitmap, t)
	for i := range ms {
		size := m
		if i > 0 && m >= 16*64 {
			size = m / 16
		}
		b := MustNew(size)
		for k := 0; k < size/2; k++ {
			b.Set(rng.Uint64())
		}
		ms[i] = b
	}
	return ms
}

var benchSizes = []int{1 << 10, 1 << 14, 1 << 17, 1 << 20, 1 << 24, 1 << 28}

var onesSink int

func BenchmarkAndAll(b *testing.B) {
	for _, m := range benchSizes {
		for _, t := range []int{3, 5, 10, 20} {
			ms := benchOperands(m, t)
			name := fmt.Sprintf("m=2^%d/t=%d", log2(m), t)
			foldBytes := int64(m/64) * int64(t) * 8
			// The materialized pipeline allocates per-operand expansions;
			// at 2^28 bits that is 32 MiB × t of churn per op, which only
			// measures the allocator. The fused arms are the subject here.
			if m <= 1<<24 {
				b.Run(name+"/materialized", func(b *testing.B) {
					b.ReportAllocs()
					b.SetBytes(foldBytes)
					for i := 0; i < b.N; i++ {
						out, err := AndAll(ms)
						if err != nil {
							b.Fatal(err)
						}
						onesSink = out.Ones()
					}
				})
			}
			b.Run(name+"/fused-count", func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(foldBytes)
				for i := 0; i < b.N; i++ {
					ones, _, err := AndOnes(ms)
					if err != nil {
						b.Fatal(err)
					}
					onesSink = ones
				}
			})
			b.Run(name+"/fused-scratch", func(b *testing.B) {
				b.ReportAllocs()
				// The Into path stores every output word on top of the
				// t-way fold.
				b.SetBytes(foldBytes + int64(m/64)*8)
				sc := new(JoinScratch)
				for i := 0; i < b.N; i++ {
					sc.Reset()
					_, ones, err := sc.AndAll(ms)
					if err != nil {
						b.Fatal(err)
					}
					onesSink = ones
				}
			})
		}
	}
}

// BenchmarkBandwidthBaseline measures the machine's streaming ceiling
// with two trivial kernels over the same word arrays the joins consume:
//
//   - copy: memcpy-style word copy (SetBytes counts the bytes copied;
//     actual traffic is 2× — the memcpy convention)
//   - popcount: sequential read + OnesCount64 accumulate, the exact
//     per-word operation the fused joins perform per operand
//
// The popcount arm is the denominator for "%-of-peak" in
// EXPERIMENTS.md: a t-operand join folding at X bytes/ns of operand
// traffic runs at X / (popcount bytes/ns) of the ceiling.
func BenchmarkBandwidthBaseline(b *testing.B) {
	for _, m := range benchSizes {
		words := m / 64
		src := make([]uint64, words)
		rng := rand.New(rand.NewSource(2))
		for i := range src {
			src[i] = rng.Uint64()
		}
		name := fmt.Sprintf("m=2^%d", log2(m))
		b.Run(name+"/copy", func(b *testing.B) {
			dst := make([]uint64, words)
			b.SetBytes(int64(words) * 8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(dst, src)
			}
			onesSink = int(dst[0])
		})
		b.Run(name+"/popcount", func(b *testing.B) {
			b.SetBytes(int64(words) * 8)
			for i := 0; i < b.N; i++ {
				n := 0
				for _, w := range src {
					n += bits.OnesCount64(w)
				}
				onesSink = n
			}
		})
	}
}

func log2(n int) int {
	k := 0
	for n > 1 {
		n >>= 1
		k++
	}
	return k
}
