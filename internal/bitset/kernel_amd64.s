//go:build amd64 && !purego

#include "textflag.h"

// AVX2 popcount kernels: per-byte population counts via a vpshufb
// nibble lookup table, reduced to per-qword sums with vpsadbw against
// zero. See kernel.go for the dispatch rules and kernel_test.go for
// the golden-reference cross-checks.

// nibblePop<> is popcount(i) for i in 0..15, replicated across both
// 128-bit lanes (vpshufb shuffles within lanes).
DATA nibblePop<>+0x00(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x08(SB)/8, $0x0403030203020201
DATA nibblePop<>+0x10(SB)/8, $0x0302020102010100
DATA nibblePop<>+0x18(SB)/8, $0x0403030203020201
GLOBL nibblePop<>(SB), RODATA|NOPTR, $32

DATA lowNibbles<>+0x00(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+0x08(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+0x10(SB)/8, $0x0f0f0f0f0f0f0f0f
DATA lowNibbles<>+0x18(SB)/8, $0x0f0f0f0f0f0f0f0f
GLOBL lowNibbles<>(SB), RODATA|NOPTR, $32

// fillShuf<> copies byte 0 of every qword into all 8 of its bytes
// (vpshufb indexes within 128-bit lanes, so qword 1 of a lane names
// byte 8).
DATA fillShuf<>+0x00(SB)/8, $0x0000000000000000
DATA fillShuf<>+0x08(SB)/8, $0x0808080808080808
DATA fillShuf<>+0x10(SB)/8, $0x0000000000000000
DATA fillShuf<>+0x18(SB)/8, $0x0808080808080808
GLOBL fillShuf<>(SB), RODATA|NOPTR, $32

// fillThresh<> holds the fill thresholds t = [0 1 2 4 8 16 32 64] in
// the bytes of every qword: byte j of a group's qword compares its
// remainder r against t_j.
DATA fillThresh<>+0x00(SB)/8, $0x4020100804020100
DATA fillThresh<>+0x08(SB)/8, $0x4020100804020100
DATA fillThresh<>+0x10(SB)/8, $0x4020100804020100
DATA fillThresh<>+0x18(SB)/8, $0x4020100804020100
GLOBL fillThresh<>(SB), RODATA|NOPTR, $32

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func popcntAVX2(p *uint64, n int) int
TEXT ·popcntAVX2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), SI
	MOVQ n+8(FP), CX
	XORQ AX, AX                  // running total
	CMPQ CX, $4
	JL   scalar
	VMOVDQU nibblePop<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR Y6, Y6, Y6             // zero, for vpsadbw
	VPXOR Y7, Y7, Y7             // qword accumulators

loop4:
	VMOVDQU (SI), Y0
	VPAND   Y0, Y5, Y1           // low nibbles
	VPSRLW  $4, Y0, Y2
	VPAND   Y2, Y5, Y2           // high nibbles
	VPSHUFB Y1, Y4, Y1           // LUT: per-nibble popcounts
	VPSHUFB Y2, Y4, Y2
	VPADDB  Y1, Y2, Y1           // per-byte popcounts
	VPSADBW Y6, Y1, Y1           // 4 per-qword sums
	VPADDQ  Y1, Y7, Y7
	ADDQ    $32, SI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     loop4

	// Reduce the 4 qword accumulators.
	VEXTRACTI128 $1, Y7, X1
	VPADDQ  X1, X7, X7
	VPSRLDQ $8, X7, X1
	VPADDQ  X1, X7, X7
	MOVQ    X7, AX
	VZEROUPPER

scalar:
	TESTQ CX, CX
	JZ    done

tail:
	POPCNTQ (SI), DX
	ADDQ  DX, AX
	ADDQ  $8, SI
	DECQ  CX
	JNZ   tail

done:
	MOVQ AX, ret+16(FP)
	RET

// func countAndPlanes1AVX2(mask uint64, plane *uint64, counts *int, groups int)
// One word per group, 4 groups per iteration; groups is a positive
// multiple of 4. vpsadbw's per-qword sums are exactly the per-group
// counts, stored directly as 4 int64s.
TEXT ·countAndPlanes1AVX2(SB), NOSPLIT, $0-32
	MOVQ mask+0(FP), AX
	MOVQ plane+8(FP), SI
	MOVQ counts+16(FP), DI
	MOVQ groups+24(FP), CX
	MOVQ AX, X0
	VPBROADCASTQ X0, Y0          // mask in every qword
	VMOVDQU nibblePop<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR Y6, Y6, Y6

loop1:
	VMOVDQU (SI), Y1             // 4 group words
	VPAND   Y0, Y1, Y1
	VPAND   Y1, Y5, Y2
	VPSRLW  $4, Y1, Y3
	VPAND   Y3, Y5, Y3
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y3, Y4, Y3
	VPADDB  Y2, Y3, Y2
	VPSADBW Y6, Y2, Y2           // counts for the 4 groups
	VMOVDQU Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     loop1

	VZEROUPPER
	RET

// func countAndPlanes2AVX2(mask *uint64, plane *uint64, counts *int, groups int)
// Two words per group, 2 groups per iteration; groups is a positive
// multiple of 2. The two-word mask is lane-replicated with
// vbroadcasti128 so one YMM holds two consecutive groups.
TEXT ·countAndPlanes2AVX2(SB), NOSPLIT, $0-32
	MOVQ mask+0(FP), AX
	MOVQ plane+8(FP), SI
	MOVQ counts+16(FP), DI
	MOVQ groups+24(FP), CX
	VBROADCASTI128 (AX), Y0      // [m0 m1 m0 m1]
	VMOVDQU nibblePop<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR Y6, Y6, Y6

loop2:
	VMOVDQU (SI), Y1             // [g0w0 g0w1 g1w0 g1w1]
	VPAND   Y0, Y1, Y1
	VPAND   Y1, Y5, Y2
	VPSRLW  $4, Y1, Y3
	VPAND   Y3, Y5, Y3
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y3, Y4, Y3
	VPADDB  Y2, Y3, Y2
	VPSADBW Y6, Y2, Y2           // [q0 q1 q2 q3]
	VPSRLDQ $8, Y2, Y3           // [q1 0 q3 0]
	VPADDQ  Y3, Y2, Y2           // [q0+q1 _ q2+q3 _]
	VPERMQ  $0x08, Y2, Y2        // low xmm = [q0+q1, q2+q3]
	VMOVDQU X2, (DI)
	ADDQ    $32, SI
	ADDQ    $16, DI
	SUBQ    $2, CX
	JNZ     loop2

	VZEROUPPER
	RET

// TileOUs kernels. Shared register plan: SI masks, DX stride in bytes,
// BX the slices still to visit, DI plane, CX groups, Y0 the current
// slice's mask, Y8 the ceiling bias swl-1 and X9 the shift log2(swl)
// (so (nz + Y8) >> X9 = ceil(nz/swl), 0 for an empty group), Y10 and
// Y11 the per-qword OU and wordline accumulators.
//
// A non-nil tot selects a second loop body that also tallies fill
// classes: r = nz & Y8 is each group's remainder nz mod swl; vpshufb
// (Y12) copies it into every byte of its qword and one signed vpcmpgtb
// against Y13's thresholds sets byte j when r > t_j, which vpsubb adds
// into the byte counters Y14. r < swl <= 128, so r <= 127 and the
// signed compare is exact. After each slice the four qword lanes' byte
// counters (at most 63 each: the caller passes at most 252 groups) are
// summed into one qword's bytes, zero-extended to dwords and added to
// the totals Y15, which load from and store back to tot.

// func tileOUs1AVX2(masks *uint64, stride int, slices uint64, plane *uint64, groups, shift int, tot *[8]uint32) (ous, wl int64)
// One word per group, 4 groups per iteration; groups is a positive
// multiple of 4. vpsadbw's per-qword sums are the 4 groups' counts.
TEXT ·tileOUs1AVX2(SB), NOSPLIT, $0-72
	MOVQ masks+0(FP), SI
	MOVQ stride+8(FP), DX
	SHLQ $3, DX
	MOVQ slices+16(FP), BX
	MOVQ plane+24(FP), DI
	MOVQ shift+40(FP), CX
	MOVQ CX, X9
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	MOVQ AX, X8
	VPBROADCASTQ X8, Y8
	MOVQ groups+32(FP), CX
	VMOVDQU nibblePop<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR Y6, Y6, Y6             // zero, for vpsadbw
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	MOVQ  tot+48(FP), R10
	TESTQ BX, BX
	JZ    reduce1
	TESTQ R10, R10
	JNZ   part1

slice1:
	BSFQ  BX, AX                 // lowest slice left
	LEAQ  -1(BX), R8
	ANDQ  R8, BX
	IMULQ DX, AX
	VPBROADCASTQ (SI)(AX*1), Y0  // its mask in every qword
	MOVQ  DI, R8
	MOVQ  CX, R9

group1:
	VPAND   (R8), Y0, Y1         // 4 groups
	VPAND   Y1, Y5, Y2
	VPSRLW  $4, Y1, Y1
	VPAND   Y1, Y5, Y1
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y1, Y4, Y1
	VPADDB  Y2, Y1, Y1
	VPSADBW Y6, Y1, Y1           // nz of the 4 groups
	VPADDQ  Y1, Y11, Y11
	VPADDQ  Y8, Y1, Y1
	VPSRLQ  X9, Y1, Y1
	VPADDQ  Y1, Y10, Y10
	ADDQ    $32, R8
	SUBQ    $4, R9
	JNZ     group1
	TESTQ   BX, BX
	JNZ     slice1
	JMP     reduce1

part1:
	VMOVDQU fillShuf<>(SB), Y12
	VMOVDQU fillThresh<>(SB), Y13
	VMOVDQU (R10), Y15

pslice1:
	BSFQ  BX, AX
	LEAQ  -1(BX), R8
	ANDQ  R8, BX
	IMULQ DX, AX
	VPBROADCASTQ (SI)(AX*1), Y0
	MOVQ  DI, R8
	MOVQ  CX, R9
	VPXOR Y14, Y14, Y14

pgroup1:
	VPAND   (R8), Y0, Y1
	VPAND   Y1, Y5, Y2
	VPSRLW  $4, Y1, Y1
	VPAND   Y1, Y5, Y1
	VPSHUFB Y2, Y4, Y2
	VPSHUFB Y1, Y4, Y1
	VPADDB  Y2, Y1, Y1
	VPSADBW Y6, Y1, Y1           // nz of the 4 groups
	VPADDQ  Y1, Y11, Y11
	VPAND   Y8, Y1, Y2           // r = nz mod swl
	VPADDQ  Y8, Y1, Y1
	VPSRLQ  X9, Y1, Y1
	VPADDQ  Y1, Y10, Y10
	VPSHUFB Y12, Y2, Y2          // r in all 8 bytes of its qword
	VPCMPGTB Y13, Y2, Y2         // byte j = -1 where r > t_j
	VPSUBB  Y2, Y14, Y14
	ADDQ    $32, R8
	SUBQ    $4, R9
	JNZ     pgroup1
	VEXTRACTI128 $1, Y14, X1     // fold the 4 lanes' counters
	VPADDB  X1, X14, X1
	VPSRLDQ $8, X1, X2
	VPADDB  X2, X1, X1
	VPMOVZXBD X1, Y1             // 8 dword counts
	VPADDD  Y1, Y15, Y15
	TESTQ   BX, BX
	JNZ     pslice1
	VMOVDQU Y15, (R10)

reduce1:
	VEXTRACTI128 $1, Y10, X1
	VPADDQ  X1, X10, X10
	VPSRLDQ $8, X10, X1
	VPADDQ  X1, X10, X10
	MOVQ    X10, ous+56(FP)
	VEXTRACTI128 $1, Y11, X1
	VPADDQ  X1, X11, X11
	VPSRLDQ $8, X11, X1
	VPADDQ  X1, X11, X11
	MOVQ    X11, wl+64(FP)
	VZEROUPPER
	RET

// func tileOUs2AVX2(masks *uint64, stride int, slices uint64, plane *uint64, groups, shift int, tot *[8]uint32) (ous, wl int64)
// Two words per group, 4 groups (two vectors) per iteration; groups is
// a positive multiple of 4. The per-byte popcounts of the two vectors
// are interleaved by qword and added, so one vpsadbw yields the four
// groups' counts (each byte sum is at most 16, no carry).
TEXT ·tileOUs2AVX2(SB), NOSPLIT, $0-72
	MOVQ masks+0(FP), SI
	MOVQ stride+8(FP), DX
	SHLQ $3, DX
	MOVQ slices+16(FP), BX
	MOVQ plane+24(FP), DI
	MOVQ shift+40(FP), CX
	MOVQ CX, X9
	MOVQ $1, AX
	SHLQ CX, AX
	DECQ AX
	MOVQ AX, X8
	VPBROADCASTQ X8, Y8
	MOVQ groups+32(FP), CX
	VMOVDQU nibblePop<>(SB), Y4
	VMOVDQU lowNibbles<>(SB), Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y10, Y10, Y10
	VPXOR Y11, Y11, Y11
	MOVQ  tot+48(FP), R10
	TESTQ BX, BX
	JZ    reduce2
	TESTQ R10, R10
	JNZ   part2

slice2:
	BSFQ  BX, AX
	LEAQ  -1(BX), R8
	ANDQ  R8, BX
	IMULQ DX, AX
	VBROADCASTI128 (SI)(AX*1), Y0 // [m0 m1 m0 m1]
	MOVQ  DI, R8
	MOVQ  CX, R9

group2:
	VPAND   (R8), Y0, Y1         // groups g, g+1
	VPAND   32(R8), Y0, Y2       // groups g+2, g+3
	VPAND   Y1, Y5, Y3
	VPSRLW  $4, Y1, Y1
	VPAND   Y1, Y5, Y1
	VPSHUFB Y3, Y4, Y3
	VPSHUFB Y1, Y4, Y1
	VPADDB  Y3, Y1, Y1           // [a0 a1 b0 b1]
	VPAND   Y2, Y5, Y3
	VPSRLW  $4, Y2, Y2
	VPAND   Y2, Y5, Y2
	VPSHUFB Y3, Y4, Y3
	VPSHUFB Y2, Y4, Y2
	VPADDB  Y3, Y2, Y2           // [c0 c1 d0 d1]
	VPUNPCKLQDQ Y2, Y1, Y3       // [a0 c0 b0 d0]
	VPUNPCKHQDQ Y2, Y1, Y1       // [a1 c1 b1 d1]
	VPADDB  Y3, Y1, Y1
	VPSADBW Y6, Y1, Y1           // nz of groups [a c b d]
	VPADDQ  Y1, Y11, Y11
	VPADDQ  Y8, Y1, Y1
	VPSRLQ  X9, Y1, Y1
	VPADDQ  Y1, Y10, Y10
	ADDQ    $64, R8
	SUBQ    $4, R9
	JNZ     group2
	TESTQ   BX, BX
	JNZ     slice2
	JMP     reduce2

part2:
	VMOVDQU fillShuf<>(SB), Y12
	VMOVDQU fillThresh<>(SB), Y13
	VMOVDQU (R10), Y15

pslice2:
	BSFQ  BX, AX
	LEAQ  -1(BX), R8
	ANDQ  R8, BX
	IMULQ DX, AX
	VBROADCASTI128 (SI)(AX*1), Y0
	MOVQ  DI, R8
	MOVQ  CX, R9
	VPXOR Y14, Y14, Y14

pgroup2:
	VPAND   (R8), Y0, Y1
	VPAND   32(R8), Y0, Y2
	VPAND   Y1, Y5, Y3
	VPSRLW  $4, Y1, Y1
	VPAND   Y1, Y5, Y1
	VPSHUFB Y3, Y4, Y3
	VPSHUFB Y1, Y4, Y1
	VPADDB  Y3, Y1, Y1
	VPAND   Y2, Y5, Y3
	VPSRLW  $4, Y2, Y2
	VPAND   Y2, Y5, Y2
	VPSHUFB Y3, Y4, Y3
	VPSHUFB Y2, Y4, Y2
	VPADDB  Y3, Y2, Y2
	VPUNPCKLQDQ Y2, Y1, Y3
	VPUNPCKHQDQ Y2, Y1, Y1
	VPADDB  Y3, Y1, Y1
	VPSADBW Y6, Y1, Y1           // nz of groups [a c b d]
	VPADDQ  Y1, Y11, Y11
	VPAND   Y8, Y1, Y2           // r = nz mod swl
	VPADDQ  Y8, Y1, Y1
	VPSRLQ  X9, Y1, Y1
	VPADDQ  Y1, Y10, Y10
	VPSHUFB Y12, Y2, Y2          // r in all 8 bytes of its qword
	VPCMPGTB Y13, Y2, Y2         // byte j = -1 where r > t_j
	VPSUBB  Y2, Y14, Y14
	ADDQ    $64, R8
	SUBQ    $4, R9
	JNZ     pgroup2
	VEXTRACTI128 $1, Y14, X1     // fold the 4 lanes' counters
	VPADDB  X1, X14, X1
	VPSRLDQ $8, X1, X2
	VPADDB  X2, X1, X1
	VPMOVZXBD X1, Y1             // 8 dword counts
	VPADDD  Y1, Y15, Y15
	TESTQ   BX, BX
	JNZ     pslice2
	VMOVDQU Y15, (R10)

reduce2:
	VEXTRACTI128 $1, Y10, X1
	VPADDQ  X1, X10, X10
	VPSRLDQ $8, X10, X1
	VPADDQ  X1, X10, X10
	MOVQ    X10, ous+56(FP)
	VEXTRACTI128 $1, Y11, X1
	VPADDQ  X1, X11, X11
	VPSRLDQ $8, X11, X1
	VPADDQ  X1, X11, X11
	MOVQ    X11, wl+64(FP)
	VZEROUPPER
	RET
