package bitmap

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidSizes(t *testing.T) {
	for _, n := range []int{64, 128, 256, 1 << 10, 1 << 20, MaxBits} {
		b, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		if b.Size() != n {
			t.Errorf("Size() = %d, want %d", b.Size(), n)
		}
		if b.Words() != n/64 {
			t.Errorf("Words() = %d, want %d", b.Words(), n/64)
		}
		if b.Ones() != 0 {
			t.Errorf("new bitmap has %d ones, want 0", b.Ones())
		}
	}
}

func TestNewInvalidSizes(t *testing.T) {
	cases := []struct {
		n    int
		want error
	}{
		{0, ErrSizeOutOfRange},
		{-64, ErrSizeOutOfRange},
		{32, ErrSizeOutOfRange},
		{63, ErrSizeOutOfRange},
		{MaxBits * 2, ErrSizeOutOfRange},
		{96, ErrSizeNotPowerOfTwo},
		{100, ErrSizeNotPowerOfTwo},
		{1<<20 + 64, ErrSizeNotPowerOfTwo},
	}
	for _, tc := range cases {
		if _, err := New(tc.n); !errors.Is(err, tc.want) {
			t.Errorf("New(%d) err = %v, want %v", tc.n, err, tc.want)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew(33) did not panic")
		}
	}()
	MustNew(33)
}

func TestSetGet(t *testing.T) {
	b := MustNew(256)
	idx := []uint64{0, 1, 63, 64, 65, 127, 128, 255}
	for _, i := range idx {
		b.Set(i)
	}
	for _, i := range idx {
		if !b.Get(i) {
			t.Errorf("Get(%d) = false after Set", i)
		}
	}
	if got := b.Ones(); got != len(idx) {
		t.Errorf("Ones() = %d, want %d", got, len(idx))
	}
	if b.Get(2) || b.Get(200) {
		t.Error("unset bits report one")
	}
}

func TestSetReducesModuloSize(t *testing.T) {
	b := MustNew(64)
	b.Set(64) // wraps to 0
	if !b.Get(0) {
		t.Error("Set(64) on 64-bit map did not set bit 0")
	}
	b.Set(1<<40 + 7)
	if !b.Get(7) {
		t.Error("Set(2^40+7) did not set bit 7")
	}
	if !b.Get(1<<40 + 7) {
		t.Error("Get does not reduce modulo size")
	}
}

func TestSetIdempotent(t *testing.T) {
	b := MustNew(64)
	b.Set(5)
	b.Set(5)
	if b.Ones() != 1 {
		t.Errorf("Ones() = %d after double set, want 1", b.Ones())
	}
}

func TestReset(t *testing.T) {
	b := MustNew(128)
	for i := uint64(0); i < 128; i += 3 {
		b.Set(i)
	}
	b.Reset()
	if b.Ones() != 0 {
		t.Errorf("Ones() = %d after Reset, want 0", b.Ones())
	}
}

func TestCountsAndFractions(t *testing.T) {
	b := MustNew(128)
	for i := uint64(0); i < 32; i++ {
		b.Set(i)
	}
	if b.Ones() != 32 || b.Zeros() != 96 {
		t.Fatalf("Ones/Zeros = %d/%d, want 32/96", b.Ones(), b.Zeros())
	}
	if got := b.FractionZero(); got != 0.75 {
		t.Errorf("FractionZero = %v, want 0.75", got)
	}
	if got := b.FractionOne(); got != 0.25 {
		t.Errorf("FractionOne = %v, want 0.25", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	b := MustNew(64)
	b.Set(1)
	c := b.Clone()
	if !b.Equal(c) {
		t.Fatal("clone not equal to original")
	}
	c.Set(2)
	if b.Get(2) {
		t.Error("mutating clone changed original")
	}
	if b.Equal(c) {
		t.Error("Equal true after divergence")
	}
}

func TestEqual(t *testing.T) {
	a, b := MustNew(64), MustNew(128)
	if a.Equal(b) {
		t.Error("different sizes reported equal")
	}
	if a.Equal(nil) {
		t.Error("Equal(nil) = true")
	}
	if !a.Equal(a.Clone()) {
		t.Error("Equal(clone) = false")
	}
}

func TestAndOr(t *testing.T) {
	a, b := MustNew(64), MustNew(64)
	a.Set(1)
	a.Set(2)
	b.Set(2)
	b.Set(3)

	and := a.Clone()
	if err := and.And(b); err != nil {
		t.Fatal(err)
	}
	if !and.Get(2) || and.Get(1) || and.Get(3) || and.Ones() != 1 {
		t.Errorf("AND wrong: %v", and)
	}

	or := a.Clone()
	if err := or.Or(b); err != nil {
		t.Fatal(err)
	}
	if or.Ones() != 3 || !or.Get(1) || !or.Get(2) || !or.Get(3) {
		t.Errorf("OR wrong: %v", or)
	}
}

func TestAndOrSizeMismatch(t *testing.T) {
	a, b := MustNew(64), MustNew(128)
	if err := a.And(b); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("And size mismatch err = %v", err)
	}
	if err := a.Or(b); !errors.Is(err, ErrSizeMismatch) {
		t.Errorf("Or size mismatch err = %v", err)
	}
}

func TestExpandToSameSizeReturnsReceiver(t *testing.T) {
	b := MustNew(64)
	e, err := b.ExpandTo(64)
	if err != nil {
		t.Fatal(err)
	}
	if e != b {
		t.Error("ExpandTo(same) should return receiver")
	}
}

func TestExpandToShrinkFails(t *testing.T) {
	b := MustNew(128)
	if _, err := b.ExpandTo(64); !errors.Is(err, ErrShrink) {
		t.Errorf("shrink err = %v, want ErrShrink", err)
	}
}

// TestExpandReplicates mirrors Figure 2: expansion doubles the contents.
func TestExpandReplicates(t *testing.T) {
	b := MustNew(64)
	b.Set(5)
	b.Set(40)
	e, err := b.ExpandTo(256)
	if err != nil {
		t.Fatal(err)
	}
	if e.Size() != 256 || e.Ones() != 8 {
		t.Fatalf("expanded: %v, want 8 ones over 256 bits", e)
	}
	for k := uint64(0); k < 4; k++ {
		if !e.Get(5+64*k) || !e.Get(40+64*k) {
			t.Errorf("replica %d missing bits", k)
		}
	}
}

// TestExpansionJoinProperty is the correctness core of Section III-A: for
// any 64-bit hash h, a record of size l expanded to size m >= l has bit
// (h mod m) set iff the original had bit (h mod l) set. This is what makes
// AND-joins across different bitmap sizes preserve common vehicles.
func TestExpansionJoinProperty(t *testing.T) {
	sizes := []int{64, 128, 1024, 4096}
	f := func(h uint64, li, mi uint8) bool {
		l := sizes[int(li)%len(sizes)]
		m := sizes[int(mi)%len(sizes)]
		if m < l {
			l, m = m, l
		}
		b := MustNew(l)
		b.Set(h) // reduced mod l internally
		e, err := b.ExpandTo(m)
		if err != nil {
			return false
		}
		return e.Get(h % uint64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestExpansionPreservesDensity: the fraction of ones is invariant under
// expansion, so linear counting on expanded bitmaps sees the same V0.
func TestExpansionPreservesDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := MustNew(512)
	for i := 0; i < 200; i++ {
		b.Set(rng.Uint64())
	}
	e, err := b.ExpandTo(4096)
	if err != nil {
		t.Fatal(err)
	}
	if b.FractionZero() != e.FractionZero() {
		t.Errorf("density changed: %v -> %v", b.FractionZero(), e.FractionZero())
	}
}

func TestAndAllMixedSizes(t *testing.T) {
	// One common "vehicle" hash plus disjoint noise in three records of
	// different sizes; the AND-join must retain the common bit.
	const h = uint64(0x9e3779b97f4a7c15)
	b1, b2, b3 := MustNew(64), MustNew(128), MustNew(256)
	b1.Set(h)
	b2.Set(h)
	b3.Set(h)
	b1.Set(3)
	b2.Set(70)
	b3.Set(200)

	j, err := AndAll([]*Bitmap{b1, b2, b3})
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != 256 {
		t.Fatalf("join size = %d, want 256", j.Size())
	}
	if !j.Get(h % 256) {
		t.Error("common bit lost in AND-join")
	}
}

func TestAndAllSingle(t *testing.T) {
	b := MustNew(64)
	b.Set(9)
	j, err := AndAll([]*Bitmap{b})
	if err != nil {
		t.Fatal(err)
	}
	if !j.Equal(b) {
		t.Error("single-operand join differs from operand")
	}
	j.Set(10)
	if b.Get(10) {
		t.Error("join result aliases its input")
	}
}

func TestJoinEmptyFails(t *testing.T) {
	if _, err := AndAll(nil); err == nil {
		t.Error("AndAll(nil) succeeded")
	}
	if _, err := OrAll(nil); err == nil {
		t.Error("OrAll(nil) succeeded")
	}
}

func TestOrAllMixedSizes(t *testing.T) {
	b1, b2 := MustNew(64), MustNew(128)
	b1.Set(5)
	b2.Set(100)
	j, err := OrAll([]*Bitmap{b1, b2})
	if err != nil {
		t.Fatal(err)
	}
	// b1 expands to {5, 69}; OR adds 100.
	want := []uint64{5, 69, 100}
	if j.Ones() != len(want) {
		t.Fatalf("join ones = %d, want %d", j.Ones(), len(want))
	}
	for _, i := range want {
		if !j.Get(i) {
			t.Errorf("bit %d missing", i)
		}
	}
}

// TestJoinAlgebraProperties: AND/OR are commutative and associative and
// expansion distributes over them — the algebraic facts the join
// pipelines rely on when regrouping Π.
func TestJoinAlgebraProperties(t *testing.T) {
	mk := func(seed int64, n int) *Bitmap {
		b := MustNew(256)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			b.Set(rng.Uint64())
		}
		return b
	}
	f := func(sa, sb, sc int64) bool {
		a, b, c := mk(sa, 60), mk(sb, 80), mk(sc, 100)

		// Commutativity: a AND b == b AND a.
		ab := a.Clone()
		if err := ab.And(b); err != nil {
			return false
		}
		ba := b.Clone()
		if err := ba.And(a); err != nil {
			return false
		}
		if !ab.Equal(ba) {
			return false
		}
		// Associativity via AndAll vs pairwise grouping.
		all, err := AndAll([]*Bitmap{a, b, c})
		if err != nil {
			return false
		}
		abc := ab.Clone()
		if err := abc.And(c); err != nil {
			return false
		}
		if !all.Equal(abc) {
			return false
		}
		// Expansion distributes over AND: expand(a AND b) == expand(a)
		// AND expand(b).
		left, err := ab.ExpandTo(1024)
		if err != nil {
			return false
		}
		ea, err := a.ExpandTo(1024)
		if err != nil {
			return false
		}
		eb, err := b.ExpandTo(1024)
		if err != nil {
			return false
		}
		right := ea.Clone()
		if err := right.And(eb); err != nil {
			return false
		}
		return left.Equal(right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestOrAllDeMorganSpot: sanity-check OR against AND through counts on a
// fixed example (|a OR b| + |a AND b| == |a| + |b|).
func TestOrAllDeMorganSpot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := MustNew(512), MustNew(512)
	for i := 0; i < 200; i++ {
		a.Set(rng.Uint64())
		b.Set(rng.Uint64())
	}
	or := a.Clone()
	if err := or.Or(b); err != nil {
		t.Fatal(err)
	}
	and := a.Clone()
	if err := and.And(b); err != nil {
		t.Fatal(err)
	}
	if or.Ones()+and.Ones() != a.Ones()+b.Ones() {
		t.Errorf("inclusion-exclusion violated: %d+%d != %d+%d",
			or.Ones(), and.Ones(), a.Ones(), b.Ones())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{64, 256, 1 << 14} {
		b := MustNew(n)
		for i := 0; i < n/4; i++ {
			b.Set(rng.Uint64())
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		got, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("Unmarshal(n=%d): %v", n, err)
		}
		if !got.Equal(b) {
			t.Errorf("round trip mismatch at n=%d", n)
		}
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	b := MustNew(128)
	b.Set(17)
	good, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(f func(d []byte)) []byte {
		d := make([]byte, len(good))
		copy(d, good)
		f(d)
		return d
	}
	cases := map[string][]byte{
		"short":        good[:8],
		"empty":        {},
		"bad magic":    mutate(func(d []byte) { d[0] ^= 0xff }),
		"bad version":  mutate(func(d []byte) { d[4] = 99 }),
		"bad size":     mutate(func(d []byte) { d[8] = 33 }),
		"flipped bit":  mutate(func(d []byte) { d[headerLen] ^= 1 }),
		"bad checksum": mutate(func(d []byte) { d[len(d)-1] ^= 1 }),
		"truncated":    good[:len(good)-5],
		"oversized":    append(append([]byte{}, good...), 0),
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestMarshalPropertyRoundTrip: any pattern of sets survives a round trip.
func TestMarshalPropertyRoundTrip(t *testing.T) {
	f := func(idx []uint64) bool {
		b := MustNew(1024)
		for _, i := range idx {
			b.Set(i)
		}
		data, err := b.MarshalBinary()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		return err == nil && got.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFromWords(t *testing.T) {
	b := MustNew(256)
	for i := range b.words {
		b.words[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	v, err := FromWords(b.Uint64s())
	if err != nil {
		t.Fatalf("FromWords: %v", err)
	}
	if !v.Equal(b) {
		t.Fatal("view differs from original")
	}
	if v.Size() != 256 || v.Words() != 4 {
		t.Fatalf("view shape = (%d bits, %d words)", v.Size(), v.Words())
	}
	// Shared storage: a write through the original is visible in the view.
	b.Set(7)
	if !v.Get(7) {
		t.Fatal("view does not share storage")
	}
	for _, bad := range [][]uint64{nil, make([]uint64, 3), make([]uint64, MaxBits/wordBits*2)} {
		if _, err := FromWords(bad); err == nil {
			t.Fatalf("FromWords accepted %d words", len(bad))
		}
	}
}

func TestAppendBinaryMatchesMarshal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	scratch := make([]byte, 0, 64)
	for _, size := range []int{64, 512, 4096} {
		b := MustNew(size)
		for i := range b.words {
			b.words[i] = rng.Uint64()
		}
		want, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("MarshalBinary: %v", err)
		}
		got, err := b.AppendBinary(scratch[:0])
		if err != nil {
			t.Fatalf("AppendBinary: %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("size %d: AppendBinary differs from MarshalBinary", size)
		}
		scratch = got // reuse grown capacity, as the streaming writers do
		// Appending after a prefix preserves the prefix.
		withPrefix, err := b.AppendBinary([]byte{0xaa, 0xbb})
		if err != nil {
			t.Fatalf("AppendBinary with prefix: %v", err)
		}
		if !bytes.Equal(withPrefix[:2], []byte{0xaa, 0xbb}) || !bytes.Equal(withPrefix[2:], want) {
			t.Fatalf("size %d: prefixed AppendBinary corrupted output", size)
		}
		if rt, err := Unmarshal(got); err != nil || !rt.Equal(b) {
			t.Fatalf("size %d: round trip failed: %v", size, err)
		}
	}
}

func BenchmarkSet(b *testing.B) {
	bm := MustNew(1 << 20)
	for i := 0; i < b.N; i++ {
		bm.Set(uint64(i) * 0x9e3779b97f4a7c15)
	}
}

func BenchmarkOnes(b *testing.B) {
	bm := MustNew(1 << 20)
	for i := 0; i < 1<<18; i++ {
		bm.Set(uint64(i) * 0x9e3779b97f4a7c15)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bm.Ones()
	}
}

func BenchmarkAndJoin(b *testing.B) {
	x, y := MustNew(1<<20), MustNew(1<<20)
	b.SetBytes(1 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.And(y)
	}
}

func BenchmarkExpand16x(b *testing.B) {
	x := MustNew(1 << 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = x.ExpandTo(1 << 20)
	}
}
