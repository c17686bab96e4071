package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

// TestNextMatchesUint64: stepping a generator held by value gives the
// pointer method's stream, draw for draw and state for state.
func TestNextMatchesUint64(t *testing.T) {
	a := New(42)
	b := *New(42)
	var x uint64
	for i := 0; i < 1000; i++ {
		want := a.Uint64()
		if b, x = Next(b); x != want || b != *a {
			t.Fatalf("draw %d: Next gave %#x, Uint64 %#x", i, x, want)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	root := New(7)
	c1 := root.Split("layer0")
	c2 := root.Split("layer1")
	c1again := root.Split("layer0")
	if c1.Uint64() != c1again.Uint64() {
		t.Fatal("Split with same label is not reproducible")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("Split with different labels produced identical streams")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	_ = a.Split("x")
	_ = a.Split("y")
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split advanced the parent stream")
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n < 50; n++ {
		for i := 0; i < 100; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestSampleKProperties(t *testing.T) {
	r := New(19)
	f := func(kRaw, nRaw uint8) bool {
		n := int(nRaw%64) + 1
		k := int(kRaw) % (n + 1)
		s := r.SampleK(k, n)
		if len(s) != k {
			return false
		}
		for i, v := range s {
			if v < 0 || v >= n {
				return false
			}
			if i > 0 && s[i-1] >= v {
				return false // must be strictly increasing (distinct, sorted)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(23)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestMul128AgainstBig(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul128(a, b)
		// Verify via 32-bit decomposition computed a second, independent way.
		wantLo := a * b
		// hi = floor(a*b / 2^64) computed with math/bits-free algebra:
		a0, a1 := a&0xffffffff, a>>32
		b0, b1 := b&0xffffffff, b>>32
		mid := a1*b0 + (a0*b0)>>32
		mid2 := a0*b1 + (mid & 0xffffffff)
		wantHi := a1*b1 + (mid >> 32) + (mid2 >> 32)
		return lo == wantLo && hi == wantHi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}
