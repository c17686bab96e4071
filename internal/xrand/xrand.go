// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator used throughout the simulator.
//
// Every experiment in this repository must be exactly reproducible from a
// seed, independent of iteration order of other experiments, so we avoid
// math/rand's global state entirely. The generator is xoshiro256**
// seeded through SplitMix64, the combination recommended by the xoshiro
// authors (Blackman & Vigna). Streams can be split hierarchically with
// Split, which derives an independent child stream from a label, so e.g.
// every layer of every network draws from its own stream no matter how
// many draws its siblings consumed.
package xrand

import "math"

// RNG is a deterministic xoshiro256** generator. The zero value is not
// valid; construct with New or Split.
type RNG struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x and returns the next SplitMix64 output. It is used
// both for seeding and for label mixing in Split.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed via SplitMix64.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.reseed(seed)
	return r
}

func (r *RNG) reseed(seed uint64) {
	sm := seed
	r.s0 = splitmix64(&sm)
	r.s1 = splitmix64(&sm)
	r.s2 = splitmix64(&sm)
	r.s3 = splitmix64(&sm)
	// xoshiro must not start from the all-zero state.
	if r.s0|r.s1|r.s2|r.s3 == 0 {
		r.s0 = 1
	}
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s1*5, 7) * 9
	t := r.s1 << 17
	r.s2 ^= r.s0
	r.s3 ^= r.s1
	r.s1 ^= r.s2
	r.s0 ^= r.s3
	r.s2 ^= t
	r.s3 = rotl(r.s3, 45)
	return result
}

// Next is Uint64 for a generator held by value: it returns the state
// after the same step and that step's 64 bits. A hot loop that keeps
// its generator in a local variable and steps it with r, x = Next(r)
// lets the compiler hold the four state words in registers, where
// Uint64 loads and stores them through a pointer on every draw.
// (Uint64 keeps its own body: written as a call to Next it would no
// longer inline.)
func Next(r RNG) (RNG, uint64) {
	s2 := r.s2 ^ r.s0
	s3 := r.s3 ^ r.s1
	return RNG{r.s0 ^ s3, r.s1 ^ s2, s2 ^ r.s1<<17, rotl(s3, 45)}, rotl(r.s1*5, 7) * 9
}

// Split derives an independent child generator from this generator's
// current state and a label. Calling Split with distinct labels yields
// statistically independent streams; Split does not advance the parent, so
// the set of children is a pure function of (parent state, label).
func (r *RNG) Split(label string) *RNG {
	h := r.s0 ^ rotl(r.s2, 23)
	for i := 0; i < len(label); i++ {
		h = (h ^ uint64(label[i])) * 0x100000001b3
	}
	seed := h
	return New(splitmix64(&seed))
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hi = t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi += aHi*bHi + t>>32
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate using the polar
// Marsaglia method: Norm of the pair Polar accepts.
func (r *RNG) NormFloat64() float64 {
	var u, s float64
	*r, u, s = Polar(*r)
	return Norm(u, s)
}

// Polar is the draw half of NormFloat64 for a generator held by value:
// it runs the polar method's acceptance loop and returns the state
// after it with the accepted pair's u and s = u² + v². A caller that
// needs the variate passes them to Norm; one that does not skips the
// Log and Sqrt, and its stream still advances exactly as NormFloat64's.
func Polar(r RNG) (RNG, float64, float64) {
	for {
		var x, y uint64
		r, x = Next(r)
		r, y = Next(r)
		u := 2*(float64(x>>11)*(1.0/(1<<53))) - 1
		v := 2*(float64(y>>11)*(1.0/(1<<53))) - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return r, u, s
		}
	}
}

// Norm is the standard normal variate of a pair Polar accepted.
func Norm(u, s float64) float64 { return u * math.Sqrt(-2*math.Log(s)/s) }

// Perm returns a random permutation of [0, n) (Fisher–Yates).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// SampleK returns k distinct integers drawn uniformly from [0, n), in
// increasing order. It panics if k > n or k < 0. It runs in O(n) when
// k is a large fraction of n and O(k) expected otherwise.
func (r *RNG) SampleK(k, n int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleK out of range")
	}
	if k == 0 {
		return nil
	}
	if k*3 >= n {
		// Dense: shuffle-and-take, then sort by selection order.
		p := r.Perm(n)[:k]
		insertionSort(p)
		return p
	}
	// Sparse: rejection sampling into a set.
	seen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for len(out) < k {
		v := r.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	insertionSort(out)
	return out
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
