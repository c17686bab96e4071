//go:build !amd64 || purego

package bitset

// hasAVX2 is constant false on non-amd64 or `purego` builds, so the
// compiler eliminates every assembly-tier branch and the stubs below
// are never reached (they exist only to satisfy the references in the
// shared dispatch code).
const hasAVX2 = false

func popcntAVX2(p *uint64, n int) int { panic("bitset: no AVX2 tier in this build") }

func countAndPlanes1(mask uint64, plane []uint64, counts []int) {
	panic("bitset: no AVX2 tier in this build")
}

func countAndPlanes2(mask, plane []uint64, counts []int) {
	panic("bitset: no AVX2 tier in this build")
}

func tileOUsAVX2(masks []uint64, stride int, slices uint64, plane []uint64, groups, w, swl int, part *[9]int64) (ous, wl int64) {
	panic("bitset: no AVX2 tier in this build")
}

func sliceMasksAVX2(codes []uint32, masks [][]uint64) uint64 {
	panic("bitset: no AVX2 tier in this build")
}
