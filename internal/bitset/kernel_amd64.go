//go:build amd64 && !purego

package bitset

import "math/bits"

// hasAVX2 gates the assembly tier. Detection is done once at init with
// raw CPUID/XGETBV (the module is dependency-free, so no
// golang.org/x/sys/cpu): the OS must have enabled XMM+YMM state saving
// (OSXSAVE + XCR0[2:1] == 11b) and the CPU must advertise AVX, AVX2,
// and POPCNT (the tail loop of popcntAVX2 uses scalar POPCNTQ).
var hasAVX2 = detectAVX2()

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		popcntBit  = 1 << 23
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&popcntBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	// XCR0 bits 1 (XMM) and 2 (YMM): the OS saves vector state.
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// cpuid executes CPUID with the given leaf/subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() (eax, edx uint32)

// popcntAVX2 popcounts n words starting at p using a vpshufb
// nibble-LUT + vpsadbw reduction, 4 words per vector iteration, with a
// scalar POPCNTQ tail. Caller guarantees n >= 1.
//
//go:noescape
func popcntAVX2(p *uint64, n int) int

// countAndPlanes1AVX2 computes counts[g] = popcount(mask & plane[g])
// for g in [0, groups) where each group is one word. groups must be a
// positive multiple of 4 (4 groups per vector iteration).
//
//go:noescape
func countAndPlanes1AVX2(mask uint64, plane *uint64, counts *int, groups int)

// countAndPlanes2AVX2 computes counts[g] = popcount(mask ∩ group g)
// for two-word groups (plane[2g], plane[2g+1]). groups must be a
// positive multiple of 2 (2 groups per vector iteration).
//
//go:noescape
func countAndPlanes2AVX2(mask *uint64, plane *uint64, counts *int, groups int)

// countAndPlanes1 dispatches the one-word-per-group shape: AVX2 over
// the 4-aligned prefix, portable scalar for the tail.
func countAndPlanes1(mask uint64, plane []uint64, counts []int) {
	g4 := len(counts) &^ 3
	if g4 > 0 {
		countAndPlanes1AVX2(mask, &plane[0], &counts[0], g4)
	}
	for g := g4; g < len(counts); g++ {
		counts[g] = bits.OnesCount64(mask & plane[g])
	}
}

// countAndPlanes2 dispatches the two-word-per-group shape: AVX2 over
// the even prefix, portable scalar for the odd tail group.
func countAndPlanes2(mask, plane []uint64, counts []int) {
	g2 := len(counts) &^ 1
	if g2 > 0 {
		countAndPlanes2AVX2(&mask[0], &plane[0], &counts[0], g2)
	}
	if g2 < len(counts) {
		counts[g2] = bits.OnesCount64(mask[0]&plane[2*g2]) + bits.OnesCount64(mask[1]&plane[2*g2+1])
	}
}

// tileOUs1AVX2 is TileOUs for one-word groups at swl = 1<<shift,
// 4 groups per vector iteration; groups must be a positive multiple
// of 4 and stride is in words. A non-nil tot also gets, for each
// threshold t_j of [0 1 2 4 8 16 32 64], the groups whose remainder
// r = nz mod swl exceeds t_j added to tot[j]; that needs swl ≤ 128
// and groups ≤ partGroupsAVX2.
//
//go:noescape
func tileOUs1AVX2(masks *uint64, stride int, slices uint64, plane *uint64, groups, shift int, tot *[8]uint32) (ous, wl int64)

// tileOUs2AVX2 is tileOUs1AVX2 for two-word groups, 4 groups (two
// vectors) per iteration.
//
//go:noescape
func tileOUs2AVX2(masks *uint64, stride int, slices uint64, plane *uint64, groups, shift int, tot *[8]uint32) (ous, wl int64)

// sliceMasks1AVX2 is BuildSliceMasks at dacBits 1 for n ≥ 1 codes and
// 1 ≤ spi ≤ 32 slices: masks points at spi slice headers, each holding
// at least Words64(n) words, and word i/64 bit i%64 of slice s gets
// bit s of codes[i]. It writes exactly the first Words64(n) words of
// every slice and returns the OR of the codes.
//
//go:noescape
func sliceMasks1AVX2(codes *uint32, n int, masks *[]uint64, spi int) uint32

// sliceMasksAVX2 is the AVX2 tier of BuildSliceMasks at dacBits 1 for
// 1 ≤ len(masks) ≤ 32 and a non-empty window; the caller has checked
// every mask's length. Slice s is non-empty iff some code has bit s
// set.
func sliceMasksAVX2(codes []uint32, masks [][]uint64) uint64 {
	or := sliceMasks1AVX2(&codes[0], len(codes), &masks[0], len(masks))
	return uint64(or & (uint32(1)<<uint(len(masks)) - 1))
}

// partGroupsAVX2 caps the groups of one fill-tallying assembly call.
// Each of the four qword lanes counts one group per iteration into byte
// counters that are summed across the lanes once per slice, so 252
// groups keep every byte sum at 4·63 = 252 < 256.
const partGroupsAVX2 = 252

// tileOUsAVX2 dispatches the one- and two-word-per-group TileOUs
// shapes (w words per group) at a power-of-two min(swl, 64·w): the
// AVX2 kernel over the 4-aligned group prefix, the portable tier for
// the tail groups. A non-nil part also needs swl ≤ 64·w, which keeps
// every remainder nz mod swl at most 127.
func tileOUsAVX2(masks []uint64, stride int, slices uint64, plane []uint64, groups, w, swl int, part *[9]int64) (ous, wl int64) {
	g4 := groups &^ 3
	shift := bits.TrailingZeros(uint(min(swl, 64*w)))
	switch {
	case g4 == 0:
	case part != nil:
		ous, wl = tileOUsTallyAVX2(masks, stride, slices, plane, g4, w, shift, part)
	case w == 1:
		ous, wl = tileOUs1AVX2(&masks[0], stride, slices, &plane[0], g4, shift, nil)
	default:
		ous, wl = tileOUs2AVX2(&masks[0], stride, slices, &plane[0], g4, shift, nil)
	}
	if g4 < groups {
		o, l := tileOUsGeneric(masks, stride, slices, plane[g4*w:], groups-g4, swl, part)
		ous, wl = ous+o, wl+l
	}
	return ous, wl
}

// tileOUsTallyAVX2 runs the fill-tallying AVX2 kernel over the first
// g4 groups (a positive multiple of 4) of a w-word plane, in calls of
// at most partGroupsAVX2 groups, and adds their fill classes to part.
func tileOUsTallyAVX2(masks []uint64, stride int, slices uint64, plane []uint64, g4, w, shift int, part *[9]int64) (ous, wl int64) {
	var tot [8]uint32
	for g := 0; g < g4; g += partGroupsAVX2 {
		n := min(partGroupsAVX2, g4-g)
		var o, l int64
		if w == 1 {
			o, l = tileOUs1AVX2(&masks[0], stride, slices, &plane[g], n, shift, &tot)
		} else {
			o, l = tileOUs2AVX2(&masks[0], stride, slices, &plane[2*g], n, shift, &tot)
		}
		ous, wl = ous+o, wl+l
	}
	// tot[j] counts the remainders above t_j, so fill class k,
	// (2^(k-1), 2^k], holds tot[k] - tot[k+1]; r <= 127 leaves class 8
	// empty.
	for k := 0; k < 7; k++ {
		part[k] += int64(tot[k]) - int64(tot[k+1])
	}
	part[7] += int64(tot[7])
	return ous, wl
}
