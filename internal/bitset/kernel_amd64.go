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
// of 4 and stride is in words.
//
//go:noescape
func tileOUs1AVX2(masks *uint64, stride int, slices uint64, plane *uint64, groups, shift int) (ous, wl int64)

// tileOUs2AVX2 is TileOUs for two-word groups at swl = 1<<shift,
// 4 groups (two vectors) per iteration; groups must be a positive
// multiple of 4 and stride is in words.
//
//go:noescape
func tileOUs2AVX2(masks *uint64, stride int, slices uint64, plane *uint64, groups, shift int) (ous, wl int64)

// tileOUs1 dispatches the one-word-per-group TileOUs shape: AVX2 over
// the 4-aligned group prefix, the portable tier for the tail groups.
func tileOUs1(masks []uint64, stride int, slices uint64, plane []uint64, swl int) (ous, wl int64) {
	g4 := len(plane) &^ 3
	if g4 > 0 {
		ous, wl = tileOUs1AVX2(&masks[0], stride, slices, &plane[0], g4, bits.TrailingZeros(uint(swl)))
	}
	if g4 < len(plane) {
		o, w := tileOUsGeneric(masks, stride, slices, plane[g4:], len(plane)-g4, swl)
		ous, wl = ous+o, wl+w
	}
	return ous, wl
}

// tileOUs2 dispatches the two-word-per-group TileOUs shape: AVX2 over
// the 4-aligned group prefix, the portable tier for the tail groups.
func tileOUs2(masks []uint64, stride int, slices uint64, plane []uint64, swl int) (ous, wl int64) {
	groups := len(plane) / 2
	g4 := groups &^ 3
	if g4 > 0 {
		ous, wl = tileOUs2AVX2(&masks[0], stride, slices, &plane[0], g4, bits.TrailingZeros(uint(swl)))
	}
	if g4 < groups {
		o, w := tileOUsGeneric(masks, stride, slices, plane[2*g4:], groups-g4, swl)
		ous, wl = ous+o, wl+w
	}
	return ous, wl
}
