package bitset

import (
	"math"
	"math/bits"
	"testing"

	"sre/internal/xrand"
)

// popcountRef is the golden-reference popcount: the original
// one-word-at-a-time scalar loop every kernel tier must match.
func popcountRef(words []uint64) int {
	c := 0
	for _, w := range words {
		c += bits.OnesCount64(w)
	}
	return c
}

// countAndPlanesRef is the golden-reference plane kernel: the original
// simple per-group loop.
func countAndPlanesRef(mask, plane []uint64, counts []int) {
	w := len(mask)
	for g := range counts {
		c := 0
		for i, m := range mask {
			c += bits.OnesCount64(m & plane[g*w+i])
		}
		counts[g] = c
	}
}

// raggedLengths hits every dispatch boundary: empty, single word,
// non-multiples of the 4-way unroll, and both sides of the AVX2
// popcount threshold.
var raggedLengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 13, 15, 16, 17, 31, 32, 33, 64, 100, 129}

func kernelWords(r *xrand.RNG, n int, fill string) []uint64 {
	words := make([]uint64, n)
	for i := range words {
		switch fill {
		case "zero":
		case "ones":
			words[i] = ^uint64(0)
		default:
			words[i] = r.Uint64()
		}
	}
	return words
}

func TestPopcountTiersAgree(t *testing.T) {
	r := xrand.New(7)
	for _, n := range raggedLengths {
		for _, fill := range []string{"zero", "ones", "random"} {
			words := kernelWords(r, n, fill)
			want := popcountRef(words)
			if got := popcountGeneric(words); got != want {
				t.Errorf("popcountGeneric n=%d fill=%s: got %d want %d", n, fill, got, want)
			}
			if got := CountWords(words); got != want {
				t.Errorf("CountWords n=%d fill=%s: got %d want %d", n, fill, got, want)
			}
			if hasAVX2 && n > 0 {
				if got := popcntAVX2(&words[0], n); got != want {
					t.Errorf("popcntAVX2 n=%d fill=%s: got %d want %d", n, fill, got, want)
				}
			}
		}
	}
}

func TestSetCountMatchesKernel(t *testing.T) {
	r := xrand.New(8)
	for _, n := range []int{0, 1, 63, 64, 65, 1000, 4096} {
		s := randomSet(r, n, 0.4)
		if got, want := s.Count(), popcountRef(s.Words()); got != want {
			t.Errorf("Set.Count n=%d: got %d want %d", n, got, want)
		}
	}
}

func TestCountAndPlanesTiersAgree(t *testing.T) {
	r := xrand.New(9)
	widths := []int{0, 1, 2, 3, 4, 5, 7, 8, 9}
	groupCounts := []int{0, 1, 2, 3, 4, 5, 7, 8, 17}
	for _, w := range widths {
		for _, groups := range groupCounts {
			for _, fill := range []string{"zero", "ones", "random"} {
				mask := kernelWords(r, w, fill)
				plane := kernelWords(r, w*groups, fill)
				want := make([]int, groups)
				countAndPlanesRef(mask, plane, want)

				got := make([]int, groups)
				for i := range got {
					got[i] = -1
				}
				CountAndPlanes(mask, plane, got)
				for g := range want {
					if got[g] != want[g] {
						t.Fatalf("CountAndPlanes w=%d groups=%d fill=%s g=%d: got %d want %d",
							w, groups, fill, g, got[g], want[g])
					}
				}

				if w > 0 && groups > 0 {
					gen := make([]int, groups)
					countAndPlanesGeneric(mask, plane, gen)
					for g := range want {
						if gen[g] != want[g] {
							t.Fatalf("countAndPlanesGeneric w=%d groups=%d fill=%s g=%d: got %d want %d",
								w, groups, fill, g, gen[g], want[g])
						}
					}
				}
				if hasAVX2 && groups > 0 {
					av := make([]int, groups)
					switch w {
					case 1:
						countAndPlanes1(mask[0], plane, av)
					case 2:
						countAndPlanes2(mask, plane, av)
					default:
						continue
					}
					for g := range want {
						if av[g] != want[g] {
							t.Fatalf("AVX2 w=%d groups=%d fill=%s g=%d: got %d want %d",
								w, groups, fill, g, av[g], want[g])
						}
					}
				}
			}
		}
	}
}

// FuzzPopcountTiers cross-checks every popcount tier on arbitrary
// byte-derived word slices (the fuzzer finds ragged lengths on its own
// since len(data)/8 rarely aligns with the unroll).
func FuzzPopcountTiers(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add(make([]byte, 8*17))
	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint64, len(data)/8+1)
		for i, b := range data {
			words[i/8] |= uint64(b) << uint(8*(i%8))
		}
		for n := 0; n <= len(words); n++ {
			sub := words[:n]
			want := popcountRef(sub)
			if got := popcountGeneric(sub); got != want {
				t.Fatalf("popcountGeneric n=%d: got %d want %d", n, got, want)
			}
			if got := CountWords(sub); got != want {
				t.Fatalf("CountWords n=%d: got %d want %d", n, got, want)
			}
			if hasAVX2 && n > 0 {
				if got := popcntAVX2(&sub[0], n); got != want {
					t.Fatalf("popcntAVX2 n=%d: got %d want %d", n, got, want)
				}
			}
		}
	})
}

// FuzzCountAndPlanesTiers cross-checks the fused plane kernel tiers,
// deriving (width, groups, words) from the fuzz input.
func FuzzCountAndPlanesTiers(f *testing.F) {
	f.Add(uint8(1), uint8(4), []byte{0xff, 0x00, 0x12})
	f.Add(uint8(2), uint8(3), []byte{})
	f.Add(uint8(5), uint8(2), make([]byte, 96))
	f.Fuzz(func(t *testing.T, w8, g8 uint8, data []byte) {
		w := int(w8%9) + 1
		groups := int(g8 % 18)
		need := w * (groups + 1)
		words := make([]uint64, need)
		for i, b := range data {
			if i/8 >= need {
				break
			}
			words[i/8] |= uint64(b) << uint(8*(i%8))
		}
		mask, plane := words[:w], words[w:w+w*groups]
		want := make([]int, groups)
		countAndPlanesRef(mask, plane, want)
		got := make([]int, groups)
		CountAndPlanes(mask, plane, got)
		for g := range want {
			if got[g] != want[g] {
				t.Fatalf("w=%d groups=%d g=%d: got %d want %d", w, groups, g, got[g], want[g])
			}
		}
		if groups > 0 {
			gen := make([]int, groups)
			countAndPlanesGeneric(mask, plane, gen)
			for g := range want {
				if gen[g] != want[g] {
					t.Fatalf("generic w=%d groups=%d g=%d: got %d want %d", w, groups, g, gen[g], want[g])
				}
			}
		}
	})
}

func BenchmarkCountWords(b *testing.B) {
	r := xrand.New(3)
	words := kernelWords(r, 512, "random")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkInt = CountWords(words)
	}
}

var sinkInt int

func benchmarkCountAndPlanes(b *testing.B, w, groups int) {
	r := xrand.New(4)
	mask := kernelWords(r, w, "random")
	plane := kernelWords(r, w*groups, "random")
	counts := make([]int, groups)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CountAndPlanes(mask, plane, counts)
	}
}

func BenchmarkCountAndPlanesW1(b *testing.B) { benchmarkCountAndPlanes(b, 1, 16) }
func BenchmarkCountAndPlanesW2(b *testing.B) { benchmarkCountAndPlanes(b, 2, 16) }
func BenchmarkCountAndPlanesW8(b *testing.B) { benchmarkCountAndPlanes(b, 8, 16) }

// tileOUsRef is the golden-reference TileOUs: phase 1's original
// per-slice, per-group scalar loop with a true ceiling division.
func tileOUsRef(masks []uint64, stride int, slices uint64, plane []uint64, groups, swl int) (ous, wl int64) {
	if groups == 0 {
		return 0, 0
	}
	w := len(plane) / groups
	for s := 0; s < 64; s++ {
		if slices&(1<<uint(s)) == 0 {
			continue
		}
		for g := 0; g < groups; g++ {
			nz := 0
			for i := 0; i < w; i++ {
				nz += bits.OnesCount64(masks[s*stride+i] & plane[g*w+i])
			}
			wl += int64(nz)
			ous += int64((nz + swl - 1) / swl)
		}
	}
	return ous, wl
}

// checkTileOUsTiers compares TileOUs and every tier that accepts the
// shape (called directly, bypassing dispatch) with tileOUsRef.
func checkTileOUsTiers(t *testing.T, masks []uint64, stride int, slices uint64, plane []uint64, groups, swl int) {
	t.Helper()
	wantOUs, wantWL := tileOUsRef(masks, stride, slices, plane, groups, swl)
	check := func(tier string, ous, wl int64) {
		t.Helper()
		if ous != wantOUs || wl != wantWL {
			t.Fatalf("%s w=%d groups=%d stride=%d slices=%#x swl=%d: got (%d, %d) want (%d, %d)",
				tier, len(plane)/max(groups, 1), groups, stride, slices, swl, ous, wl, wantOUs, wantWL)
		}
	}
	ous, wl := TileOUs(masks, stride, slices, plane, groups, swl)
	check("TileOUs", ous, wl)
	if groups == 0 {
		return
	}
	ous, wl = tileOUsGeneric(masks, stride, slices, plane, groups, swl)
	check("tileOUsGeneric", ous, wl)
	if !hasAVX2 || swl&(swl-1) != 0 {
		return
	}
	switch len(plane) / groups {
	case 1:
		ous, wl = tileOUs1(masks, stride, slices, plane, swl)
		check("tileOUs1 (AVX2)", ous, wl)
	case 2:
		ous, wl = tileOUs2(masks, stride, slices, plane, swl)
		check("tileOUs2 (AVX2)", ous, wl)
	}
}

func TestTileOUsMatchesReference(t *testing.T) {
	r := xrand.New(10)
	swls := []int{1, 2, 4, 16, 128, 3, 5, 12}
	for _, w := range []int{1, 2, 3, 5} {
		for groups := 1; groups <= 17; groups++ {
			for spi := 1; spi <= 32; spi++ {
				// All-ones data drives nz to 64·w (128 at two words).
				fill := "random"
				if (groups+spi)%4 == 0 {
					fill = "ones"
				}
				for _, stride := range []int{w, w + 3} {
					masks := kernelWords(r, (spi-1)*stride+w, fill)
					plane := kernelWords(r, groups*w, fill)
					all := uint64(1)<<uint(spi) - 1
					for _, slices := range []uint64{0, all, r.Uint64() & all} {
						for _, swl := range swls {
							checkTileOUsTiers(t, masks, stride, slices, plane, groups, swl)
						}
					}
				}
			}
		}
	}
}

func TestTileOUsEdges(t *testing.T) {
	mask := []uint64{^uint64(0), ^uint64(0)}
	if ous, wl := TileOUs(nil, 0, 0, nil, 0, 16); ous != 0 || wl != 0 {
		t.Fatalf("empty tile: (%d, %d)", ous, wl)
	}
	// swl past 64·w counts one OU per non-empty group; nz+swl-1 would
	// overflow at these.
	for _, swl := range []int{math.MaxInt, 1 << 62} {
		if ous, wl := TileOUs(mask, 2, 1, mask, 1, swl); ous != 1 || wl != 128 {
			t.Fatalf("swl %d: (%d, %d), want (1, 128)", swl, ous, wl)
		}
	}
	for _, c := range []struct {
		name   string
		masks  []uint64
		stride int
		slices uint64
		plane  []uint64
		groups int
		swl    int
	}{
		{"plane not a multiple of groups", mask, 2, 1, mask[:1], 2, 16},
		{"zero swl", mask, 2, 1, mask, 1, 0},
		{"negative stride", mask, -1, 1, mask, 1, 16},
		{"masks shorter than the top slice", mask, 2, 3, mask, 1, 16},
		{"mask shorter than a group", mask[:1], 1, 1, mask, 1, 16},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			TileOUs(c.masks, c.stride, c.slices, c.plane, c.groups, c.swl)
		}()
	}
}

// FuzzTileOUs cross-checks every TileOUs tier with the reference on
// shapes and contents derived from the fuzz input (words repeat the
// data bytes, so short inputs still give dense masks).
func FuzzTileOUs(f *testing.F) {
	f.Add(uint8(1), uint8(8), uint8(15), uint8(0), uint16(15), ^uint64(0), []byte{0xff, 0x0f, 0x37})
	f.Add(uint8(2), uint8(7), uint8(31), uint8(3), uint16(11), uint64(0x5a5a5a5a), []byte{0xff})
	f.Add(uint8(4), uint8(17), uint8(4), uint8(1), uint16(127), uint64(1), make([]byte, 40))
	f.Fuzz(func(t *testing.T, w8, g8, s8, pad8 uint8, swl16 uint16, slices uint64, data []byte) {
		w := int(w8%5) + 1
		groups := int(g8 % 18)
		spi := int(s8%32) + 1
		stride := w + int(pad8%4)
		swl := int(swl16%200) + 1
		slices &= uint64(1)<<uint(spi) - 1
		words := make([]uint64, (spi-1)*stride+w+groups*w)
		if len(data) > 0 {
			for i := 0; i < 8*len(words); i++ {
				words[i/8] |= uint64(data[i%len(data)]) << uint(8*(i%8))
			}
		}
		masks, plane := words[:(spi-1)*stride+w], words[(spi-1)*stride+w:]
		checkTileOUsTiers(t, masks, stride, slices, plane, groups, swl)
	})
}

// tileOUsInput builds one design-point tile window for the TileOUs
// benchmarks: rows activation codes, half of them zero, split into 16
// one-bit slice masks at stride Words64(128), and a random 8-group plane.
func tileOUsInput(rows int) (masks []uint64, stride int, slices uint64, plane []uint64) {
	const spi, groups = 16, 8
	r := xrand.New(5)
	codes := make([]uint32, rows)
	for i := range codes {
		if r.Intn(2) == 1 {
			codes[i] = uint32(r.Intn(1<<16)) >> uint(r.Intn(16))
		}
	}
	stride, w := Words64(128), Words64(rows)
	masks = make([]uint64, spi*stride)
	heads := make([][]uint64, spi)
	for s := range heads {
		heads[s] = masks[s*stride : s*stride+w]
	}
	slices = BuildSliceMasks(codes, 1, heads)
	return masks, stride, slices, kernelWords(r, groups*w, "random")
}

func benchmarkTileOUs(b *testing.B, rows int) {
	masks, stride, slices, plane := tileOUsInput(rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ous, wl := TileOUs(masks, stride, slices, plane, 8, 16)
		sinkInt += int(ous + wl)
	}
}

// benchmarkPerSliceOUs times what TileOUs replaces in unmetered phase
// 1 (and metered phase 1 still runs): one CountAndPlanes per non-empty
// slice, then a per-group ceil(nz/S_WL) table lookup.
func benchmarkPerSliceOUs(b *testing.B, rows int) {
	masks, stride, slices, plane := tileOUsInput(rows)
	w := Words64(rows)
	counts := make([]int, 8)
	ouTab := make([]int32, 129)
	for nz := range ouTab {
		ouTab[nz] = int32((nz + 15) / 16)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ous, wl int64
		for s := 0; s < 16; s++ {
			if slices&(1<<uint(s)) == 0 {
				continue
			}
			CountAndPlanes(masks[s*stride:s*stride+w], plane, counts)
			for _, nz := range counts {
				if nz == 0 {
					continue
				}
				ous += int64(ouTab[nz])
				wl += int64(nz)
			}
		}
		sinkInt += int(ous + wl)
	}
}

func BenchmarkTileOUsW1(b *testing.B)     { benchmarkTileOUs(b, 64) }
func BenchmarkTileOUsW2(b *testing.B)     { benchmarkTileOUs(b, 128) }
func BenchmarkPerSliceOUsW1(b *testing.B) { benchmarkPerSliceOUs(b, 64) }
func BenchmarkPerSliceOUsW2(b *testing.B) { benchmarkPerSliceOUs(b, 128) }
