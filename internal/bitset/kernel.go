// Tiered popcount kernels.
//
// Every counting path in the package funnels into one of three entry
// points, each with up to three tiers:
//
//   - popcountWords: linear popcount, behind CountWords and Set.Count;
//   - CountAndPlanes: popcount(mask ∩ group g) for every group of a
//     word plane, for callers that need each group's count;
//   - TileOUs: CountAndPlanes fused with the OU count over every set
//     slice of a tile-window, returning only the two sums
//     Σ ceil(count/swl) and Σ count.
//
// The tiers are:
//
//  1. a portable kernel on math/bits.OnesCount64 (always compiled, the
//     only tier on non-amd64 or `purego` builds),
//  2. an AVX2 assembly path (//go:build amd64 && !purego) selected at
//     runtime by CPUID feature detection, and
//  3. the original one-word-at-a-time scalar loops, kept in the test
//     files as the golden reference every tier is checked against.
//
// Dispatch is shape-aware: AVX2 only pays off past a minimum word
// count (popcount) or for the plane widths the simulator actually hits
// in its hot loop (W == 1 and W == 2 words per group, i.e. crossbar
// tiles of up to 128 rows; TileOUs also needs a power-of-two swl, so
// the ceiling is a shift). Everything else takes the portable tier.
// All tiers are bit-identical by construction (they compute exact
// integer counts and sums), and kernel_test.go + fuzz targets enforce
// agreement on ragged lengths, group tails and degenerate planes.
package bitset

import "math/bits"

// avx2PopcountMin is the word count below which the unrolled portable
// kernel beats the AVX2 path (loop setup + VZEROUPPER dominate short
// inputs; scalar POPCNTQ already retires one word per cycle).
const avx2PopcountMin = 16

// Kernel names the counting tier runtime dispatch has selected, for
// diagnostics and benchmark logs ("avx2" or "generic").
func Kernel() string {
	if hasAVX2 {
		return "avx2"
	}
	return "generic"
}

// popcountWords is the single popcount entry point behind CountWords
// and Set.Count.
func popcountWords(words []uint64) int {
	if hasAVX2 && len(words) >= avx2PopcountMin {
		return popcntAVX2(&words[0], len(words))
	}
	return popcountGeneric(words)
}

// popcountGeneric is the portable tier: 4-way unrolled OnesCount64
// with independent accumulators so the adds don't serialize.
func popcountGeneric(words []uint64) int {
	var c0, c1, c2, c3 int
	i := 0
	for ; i+4 <= len(words); i += 4 {
		c0 += bits.OnesCount64(words[i])
		c1 += bits.OnesCount64(words[i+1])
		c2 += bits.OnesCount64(words[i+2])
		c3 += bits.OnesCount64(words[i+3])
	}
	for ; i < len(words); i++ {
		c0 += bits.OnesCount64(words[i])
	}
	return c0 + c1 + c2 + c3
}

// countAndPlanesGeneric is the portable CountAndPlanes tier. The
// simulator's planes are overwhelmingly 1 or 2 words per group
// (crossbar tiles ≤ 128 rows), so those widths get branch-free
// specializations; wider planes take a 4-way unrolled inner loop.
func countAndPlanesGeneric(mask, plane []uint64, counts []int) {
	switch w := len(mask); w {
	case 1:
		m := mask[0]
		for g, gw := range plane[:len(counts)] {
			counts[g] = bits.OnesCount64(m & gw)
		}
	case 2:
		m0, m1 := mask[0], mask[1]
		for g := range counts {
			counts[g] = bits.OnesCount64(m0&plane[2*g]) + bits.OnesCount64(m1&plane[2*g+1])
		}
	default:
		for g := range counts {
			gw := plane[g*w : g*w+w : g*w+w]
			var c0, c1, c2, c3 int
			i := 0
			for ; i+4 <= w; i += 4 {
				c0 += bits.OnesCount64(mask[i] & gw[i])
				c1 += bits.OnesCount64(mask[i+1] & gw[i+1])
				c2 += bits.OnesCount64(mask[i+2] & gw[i+2])
				c3 += bits.OnesCount64(mask[i+3] & gw[i+3])
			}
			for ; i < w; i++ {
				c0 += bits.OnesCount64(mask[i] & gw[i])
			}
			counts[g] = c0 + c1 + c2 + c3
		}
	}
}

// tileOUsGeneric is the portable TileOUs tier: one fused pass per set
// slice with no counts buffer, specialized like countAndPlanesGeneric
// for one- and two-word groups. A power-of-two swl (every OU size the
// paper evaluates) turns the ceiling division into a shift; other
// sizes pay a division per group.
func tileOUsGeneric(masks []uint64, stride int, slices uint64, plane []uint64, groups, swl int) (ous, wl int64) {
	w := len(plane) / groups
	bias, shift, pow2 := swl-1, uint(bits.TrailingZeros(uint(swl))), swl&(swl-1) == 0
	ceil := func(nz int) int {
		if pow2 {
			return (nz + bias) >> (shift & 63)
		}
		return (nz + bias) / swl
	}
	for sl := slices; sl != 0; sl &= sl - 1 {
		off := bits.TrailingZeros64(sl) * stride
		m := masks[off : off+w : off+w]
		var sOUs, sWL int
		switch w {
		case 1:
			m0 := m[0]
			for _, p := range plane {
				nz := bits.OnesCount64(m0 & p)
				sOUs += ceil(nz)
				sWL += nz
			}
		case 2:
			m0, m1 := m[0], m[1]
			for g := 0; g+1 < len(plane); g += 2 {
				nz := bits.OnesCount64(m0&plane[g]) + bits.OnesCount64(m1&plane[g+1])
				sOUs += ceil(nz)
				sWL += nz
			}
		default:
			for g := 0; g < len(plane); g += w {
				nz := 0
				for i, gw := range plane[g : g+w : g+w] {
					nz += bits.OnesCount64(m[i] & gw)
				}
				sOUs += ceil(nz)
				sWL += nz
			}
		}
		ous += int64(sOUs)
		wl += int64(sWL)
	}
	return ous, wl
}
