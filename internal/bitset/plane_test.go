package bitset

import (
	"testing"

	"sre/internal/xrand"
)

// randomSet returns a Set of n bits with roughly density·n set, plus
// the same content as a fresh word slice.
func randomSet(r *xrand.RNG, n int, density float64) *Set {
	s := New(n)
	for i := 0; i < n; i++ {
		if r.Bernoulli(density) {
			s.Set(i)
		}
	}
	return s
}

func TestCountAndPlanesMatchesCountAnd(t *testing.T) {
	r := xrand.New(1)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300) // deliberately non-word-aligned most of the time
		groups := 1 + r.Intn(9)
		mask := randomSet(r, n, 0.3)
		var plane []uint64
		sets := make([]*Set, groups)
		for g := range sets {
			sets[g] = randomSet(r, n, 0.5)
			plane = AppendPlane(plane, sets[g])
		}
		counts := make([]int, groups)
		CountAndPlanes(mask.Words(), plane, counts)
		for g, want := range sets {
			if counts[g] != mask.CountAnd(want) {
				t.Fatalf("trial %d n=%d group %d: fused count %d != scalar %d",
					trial, n, g, counts[g], mask.CountAnd(want))
			}
		}
	}
}

func TestCountAndPlanesEmpty(t *testing.T) {
	// Zero groups and zero-length masks must both be well-defined.
	CountAndPlanes(nil, nil, nil)
	counts := []int{7, 7}
	CountAndPlanes(nil, nil, counts)
	if counts[0] != 0 || counts[1] != 0 {
		t.Fatal("zero-word plane must produce zero counts")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch must panic")
		}
	}()
	CountAndPlanes(make([]uint64, 2), make([]uint64, 3), counts)
}

// scalarSliceMasks is the pre-kernel reference: per-bit Set calls, one
// slice at a time.
func scalarSliceMasks(codes []uint32, dacBits, spi, n int) []*Set {
	masks := make([]*Set, spi)
	dacMask := uint32(1)<<uint(dacBits) - 1
	for s := range masks {
		masks[s] = New(n)
	}
	for i, code := range codes {
		if code == 0 {
			continue
		}
		for s := 0; s < spi; s++ {
			if code>>uint(s*dacBits)&dacMask != 0 {
				masks[s].Set(i)
			}
		}
	}
	return masks
}

// sliceMaskLengths are the window lengths that cross the AVX2 tier's
// 32-code blocks and 64-bit words on either side.
var sliceMaskLengths = []int{1, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200}

// checkSliceMasksTiers compares BuildSliceMasks and every tier that
// accepts the shape (called directly, bypassing dispatch) with
// scalarSliceMasks. Each gets spi masks of Words64(len(codes))+pad
// words pre-filled with ones: the first Words64 words must equal the
// reference, the pad words must stay untouched, and the returned
// bitmap must name exactly the non-empty slices.
func checkSliceMasksTiers(t *testing.T, codes []uint32, dacBits, spi, pad int) {
	t.Helper()
	n, nw := len(codes), Words64(len(codes))
	want := scalarSliceMasks(codes, dacBits, spi, n)
	check := func(tier string, build func(masks [][]uint64) uint64) {
		t.Helper()
		masks := make([][]uint64, spi)
		for s := range masks {
			masks[s] = make([]uint64, nw+pad)
			for i := range masks[s] {
				masks[s][i] = ^uint64(0)
			}
		}
		nonEmpty := build(masks)
		var wantNonEmpty uint64
		for s := range masks {
			for w, word := range masks[s] {
				wantWord := ^uint64(0)
				if w < nw {
					wantWord = want[s].Words()[w]
				}
				if word != wantWord {
					t.Fatalf("%s dac=%d spi=%d n=%d pad=%d slice %d word %d: %#x != %#x",
						tier, dacBits, spi, n, pad, s, w, word, wantWord)
				}
			}
			if want[s].Count() > 0 {
				wantNonEmpty |= 1 << uint(s)
			}
		}
		if nonEmpty != wantNonEmpty {
			t.Fatalf("%s dac=%d spi=%d n=%d: non-empty bitmap %#x, want %#x",
				tier, dacBits, spi, n, nonEmpty, wantNonEmpty)
		}
	}
	check("BuildSliceMasks", func(masks [][]uint64) uint64 { return BuildSliceMasks(codes, dacBits, masks) })
	check("sliceMasksGeneric", func(masks [][]uint64) uint64 { return sliceMasksGeneric(codes, dacBits, masks) })
	if hasAVX2 && dacBits == 1 && n > 0 && spi >= 1 && spi <= 32 {
		check("sliceMasksAVX2", func(masks [][]uint64) uint64 { return sliceMasksAVX2(codes, masks) })
	}
}

func TestBuildSliceMasksMatchesScalar(t *testing.T) {
	r := xrand.New(2)
	for _, dacBits := range []int{1, 2, 4, 8} {
		spi := 16 / dacBits
		for trial := 0; trial < 30; trial++ {
			codes := make([]uint32, 1+r.Intn(200))
			for i := range codes {
				if !r.Bernoulli(0.4) {
					codes[i] = uint32(r.Intn(1 << 16))
				}
			}
			checkSliceMasksTiers(t, codes, dacBits, spi, 0)
		}
	}
	// One-bit DACs at every slice count the AVX2 tier takes, on codes
	// with bits above spi (which no slice may pick up) and on
	// log-uniform codes whose high slices are sparse.
	for spi := 1; spi <= 32; spi++ {
		for _, n := range sliceMaskLengths {
			full := make([]uint32, n)
			logUniform := make([]uint32, n)
			for i := range full {
				if r.Intn(4) != 0 {
					full[i] = uint32(r.Uint64())
				}
				if r.Intn(2) == 1 {
					logUniform[i] = uint32(r.Uint64()) >> uint(r.Intn(32))
				}
			}
			checkSliceMasksTiers(t, full, 1, spi, 0)
			checkSliceMasksTiers(t, logUniform, 1, spi, 0)
		}
	}
}

func TestBuildSliceMasksOverwritesStale(t *testing.T) {
	// Reused mask buffers must not leak bits from a previous window, and
	// words past Words64(n) (a maskPlane's padding) must stay untouched.
	ones := make([]uint32, 200)
	for i := range ones {
		ones[i] = ^uint32(0)
	}
	for _, n := range sliceMaskLengths {
		for spi := 1; spi <= 32; spi++ {
			checkSliceMasksTiers(t, make([]uint32, n), 1, spi, 2)
			checkSliceMasksTiers(t, ones[:n], 1, spi, 2)
		}
		for _, dacBits := range []int{2, 4, 8} {
			checkSliceMasksTiers(t, make([]uint32, n), dacBits, 16/dacBits, 2)
			checkSliceMasksTiers(t, ones[:n], dacBits, 32/dacBits, 2)
		}
	}
	masks := [][]uint64{{^uint64(0)}, {^uint64(0)}}
	if nonEmpty := BuildSliceMasks(make([]uint32, 8), 1, masks); nonEmpty != 0 || masks[0][0] != 0 || masks[1][0] != 0 {
		t.Fatalf("all-zero codes: non-empty %b, masks %#x %#x", nonEmpty, masks[0][0], masks[1][0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a mask shorter than Words64(n) must panic")
		}
	}()
	BuildSliceMasks(make([]uint32, 65), 1, [][]uint64{make([]uint64, 2), make([]uint64, 1)})
}

// FuzzBuildSliceMasks cross-checks every BuildSliceMasks tier with the
// scalar reference on windows of 0 to 300 codes built from the fuzz
// input (codes repeat the data bytes), at DAC widths 1 to 8 and up to
// 32 slices, into masks padded past Words64(n).
func FuzzBuildSliceMasks(f *testing.F) {
	f.Add(uint16(128), uint8(0), uint8(16), uint8(0), []byte{0x00, 0x00, 0x3f, 0x00, 0x00})
	f.Add(uint16(19), uint8(0), uint8(13), uint8(2), []byte{0xff})
	f.Add(uint16(97), uint8(1), uint8(11), uint8(1), []byte{0x81, 0x00, 0x00, 0x80, 0x7e, 0x00, 0x00})
	f.Add(uint16(300), uint8(7), uint8(32), uint8(3), make([]byte, 5))
	f.Fuzz(func(t *testing.T, n16 uint16, dac8, s8, pad8 uint8, data []byte) {
		codes := make([]uint32, int(n16%301))
		if len(data) > 0 {
			for i := 0; i < 4*len(codes); i++ {
				codes[i/4] |= uint32(data[i%len(data)]) << uint(8*(i%4))
			}
		}
		checkSliceMasksTiers(t, codes, int(dac8%8)+1, int(s8%33), int(pad8%4))
	})
}

func TestCountWords(t *testing.T) {
	if CountWords(nil) != 0 {
		t.Fatal("empty")
	}
	s := New(130)
	s.Set(0)
	s.Set(64)
	s.Set(129)
	if CountWords(s.Words()) != 3 || CountWords(s.Words()) != s.Count() {
		t.Fatal("CountWords disagrees with Count")
	}
}

// ---- edge cases for the pre-existing scalar primitives ----

func TestCountRangeEdges(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Set(i)
	}
	check := func(lo, hi, want int) {
		t.Helper()
		if got := s.CountRange(lo, hi); got != want {
			t.Fatalf("CountRange(%d, %d) = %d, want %d", lo, hi, got, want)
		}
	}
	check(0, 0, 0)
	check(64, 64, 0)
	check(5, 5, 0)
	check(10, 5, 0)
	check(-5, 2, 2)
	check(128, 500, 2) // hi clamped to Len
	check(0, 130, 8)
	check(63, 65, 2)   // straddles a word boundary
	check(129, 130, 1) // final non-aligned bit
	empty := New(0)
	if empty.CountRange(0, 10) != 0 {
		t.Fatal("empty set must count zero")
	}
}

func TestCountAndEdges(t *testing.T) {
	a, b := New(0), New(0)
	if a.CountAnd(b) != 0 {
		t.Fatal("empty CountAnd")
	}
	// Non-word-aligned length: only in-range bits may match.
	a, b = New(70), New(70)
	a.SetAll()
	b.SetAll()
	if a.CountAnd(b) != 70 {
		t.Fatalf("CountAnd full overlap = %d, want 70", a.CountAnd(b))
	}
	b.Reset()
	if a.CountAnd(b) != 0 {
		t.Fatal("CountAnd with empty must be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	a.CountAnd(New(71))
}

func TestNextSetEdges(t *testing.T) {
	empty := New(0)
	if empty.NextSet(0) != -1 {
		t.Fatal("NextSet on zero-length set")
	}
	s := New(130)
	if s.NextSet(0) != -1 {
		t.Fatal("NextSet on all-zero set")
	}
	s.Set(129)
	if s.NextSet(-10) != 129 { // negative start clamps to 0
		t.Fatal("negative start")
	}
	if s.NextSet(129) != 129 || s.NextSet(130) != -1 || s.NextSet(1000) != -1 {
		t.Fatal("NextSet boundary behavior")
	}
	s.Set(0)
	if s.NextSet(0) != 0 || s.NextSet(1) != 129 {
		t.Fatal("NextSet skip behavior")
	}
}

// ---- micro-benchmarks of the kernels ----

func benchPlaneData(n, groups int) (*Set, []uint64, []*Set) {
	r := xrand.New(42)
	mask := randomSet(r, n, 0.4)
	var plane []uint64
	sets := make([]*Set, groups)
	for g := range sets {
		sets[g] = randomSet(r, n, 0.5)
		plane = AppendPlane(plane, sets[g])
	}
	return mask, plane, sets
}

func BenchmarkCountAndPerGroup(b *testing.B) {
	mask, _, sets := benchPlaneData(128, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		total := 0
		for _, s := range sets {
			total += mask.CountAnd(s)
		}
		sink = total
	}
}

func BenchmarkCountAndPlanes(b *testing.B) {
	mask, plane, _ := benchPlaneData(128, 8)
	counts := make([]int, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CountAndPlanes(mask.Words(), plane, counts)
		sink = counts[0]
	}
}

// BenchmarkBuildSliceMasks times one 16-slice one-bit-DAC window, half
// of its codes zero: uniform codes below 2^16 (every slice dense),
// log-uniform ones shifted right by a uniform 0..15 as perfbench's
// kernel probe draws them (high slices sparse, as in real
// activations), and a 19-row tail (GoogLeNet's 147-row first layer
// past one 128-row tile). Each shape runs through the tier dispatch
// selects (named by Kernel()) and the portable tier, so one run shows
// the ratio.
func BenchmarkBuildSliceMasks(b *testing.B) {
	for _, c := range []struct {
		name       string
		rows       int
		logUniform bool
	}{{"uniform", 128, false}, {"loguniform", 128, true}, {"tail19", 19, true}} {
		r := xrand.New(7)
		codes := make([]uint32, c.rows)
		for i := range codes {
			if r.Intn(2) == 1 {
				codes[i] = uint32(r.Intn(1 << 16))
				if c.logUniform {
					codes[i] >>= uint(r.Intn(16))
				}
			}
		}
		masks := make([][]uint64, 16)
		for s := range masks {
			masks[s] = make([]uint64, Words64(len(codes)))
		}
		b.Run(c.name+"/"+Kernel(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = int(BuildSliceMasks(codes, 1, masks))
			}
		})
		b.Run(c.name+"/portable", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink = int(sliceMasksGeneric(codes, 1, masks))
			}
		})
	}
}

var sink int
