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

// Slice-mask kernel: a bit transpose of 32 codes at a time. vpshufb
// (transposeShuf<>) turns each lane's four codes into four byte
// planes, the dword p of a lane holding byte p of its codes; the dword
// and qword unpacks gather plane p (slices 8p..8p+7) of all 32 codes
// into one register and vpermd (planePerm<>) restores code order. Each
// vpmovmskb then reads one slice's bit of the 32 codes, from the
// plane's bit 7 down, and vpaddb doubles every byte to move the next
// lower bit up to bit 7.

// transposeShuf<> puts byte 4i+p of a lane at byte 4p+i (a 4×4 byte
// transpose within each 128-bit lane).
DATA transposeShuf<>+0x00(SB)/8, $0x0d0905010c080400
DATA transposeShuf<>+0x08(SB)/8, $0x0f0b07030e0a0602
DATA transposeShuf<>+0x10(SB)/8, $0x0d0905010c080400
DATA transposeShuf<>+0x18(SB)/8, $0x0f0b07030e0a0602
GLOBL transposeShuf<>(SB), RODATA|NOPTR, $32

// planePerm<> = [0 4 1 5 2 6 3 7]: the unpacks leave a plane's dwords
// (four codes each) in the order 0 2 4 6 1 3 5 7.
DATA planePerm<>+0x00(SB)/8, $0x0000000400000000
DATA planePerm<>+0x08(SB)/8, $0x0000000500000001
DATA planePerm<>+0x10(SB)/8, $0x0000000600000002
DATA planePerm<>+0x18(SB)/8, $0x0000000700000003
GLOBL planePerm<>(SB), RODATA|NOPTR, $32

// codeIndex<> = [0 1 … 31], compared against the codes left to mask
// the loads of a short last block.
DATA codeIndex<>+0x00(SB)/8, $0x0000000100000000
DATA codeIndex<>+0x08(SB)/8, $0x0000000300000002
DATA codeIndex<>+0x10(SB)/8, $0x0000000500000004
DATA codeIndex<>+0x18(SB)/8, $0x0000000700000006
DATA codeIndex<>+0x20(SB)/8, $0x0000000900000008
DATA codeIndex<>+0x28(SB)/8, $0x0000000b0000000a
DATA codeIndex<>+0x30(SB)/8, $0x0000000d0000000c
DATA codeIndex<>+0x38(SB)/8, $0x0000000f0000000e
DATA codeIndex<>+0x40(SB)/8, $0x0000001100000010
DATA codeIndex<>+0x48(SB)/8, $0x0000001300000012
DATA codeIndex<>+0x50(SB)/8, $0x0000001500000014
DATA codeIndex<>+0x58(SB)/8, $0x0000001700000016
DATA codeIndex<>+0x60(SB)/8, $0x0000001900000018
DATA codeIndex<>+0x68(SB)/8, $0x0000001b0000001a
DATA codeIndex<>+0x70(SB)/8, $0x0000001d0000001c
DATA codeIndex<>+0x78(SB)/8, $0x0000001f0000001e
GLOBL codeIndex<>(SB), RODATA|NOPTR, $128

// SLICE stores one slice of the block: bit 7 of every byte of plane
// Y6, one bit per code, goes to dword DX of the slice whose header is
// at off(R10); doubling Y6's bytes then moves the next lower bit up to
// bit 7.
#define SLICE(off) \
	VPMOVMSKB Y6, AX; \
	MOVQ      off(R10), R9; \
	MOVL      AX, (R9)(DX*4); \
	VPADDB    Y6, Y6, Y6

// func sliceMasks1AVX2(codes *uint32, n int, masks *[]uint64, spi int) uint32
// Register plan: SI the codes, CX the codes left, DX the block index
// (the dword of every mask it writes), DI the mask headers, BX spi,
// R11 the planes ceil(spi/8), X12 their spare top bits 8·R11−spi,
// Y13/Y14 the constants above, Y15 the OR of every code loaded.
TEXT ·sliceMasks1AVX2(SB), NOSPLIT, $0-36
	MOVQ codes+0(FP), SI
	MOVQ n+8(FP), CX
	MOVQ masks+16(FP), DI
	MOVQ spi+24(FP), BX
	LEAQ 7(BX), R11
	SHRQ $3, R11
	LEAQ (R11*8), AX
	SUBQ BX, AX
	VMOVQ AX, X12
	VMOVDQU planePerm<>(SB), Y13
	VMOVDQU transposeShuf<>(SB), Y14
	VPXOR Y15, Y15, Y15
	XORQ DX, DX

block:
	CMPQ    CX, $32
	JLT     short
	VMOVDQU (SI), Y0             // codes 0-7 of the block
	VMOVDQU 32(SI), Y1           // 8-15
	VMOVDQU 64(SI), Y2           // 16-23
	VMOVDQU 96(SI), Y3           // 24-31

transpose:
	VPOR    Y0, Y15, Y15
	VPOR    Y1, Y15, Y15
	VPOR    Y2, Y15, Y15
	VPOR    Y3, Y15, Y15
	VPSHUFB Y14, Y0, Y0          // lane dword p = byte p of its 4 codes
	VPSHUFB Y14, Y1, Y1
	VPSHUFB Y14, Y2, Y2
	VPSHUFB Y14, Y3, Y3
	VPUNPCKLDQ  Y1, Y0, Y4       // planes 0, 1 of codes 0-15
	VPUNPCKLDQ  Y3, Y2, Y5       // planes 0, 1 of codes 16-31
	VPUNPCKLQDQ Y5, Y4, Y6
	VPERMD  Y6, Y13, Y6          // plane 0: byte i = bits 0-7 of code i
	CMPQ    R11, $1
	JEQ     emit
	VPUNPCKHQDQ Y5, Y4, Y7
	VPERMD  Y7, Y13, Y7          // plane 1
	CMPQ    R11, $2
	JEQ     emit
	VPUNPCKHDQ  Y1, Y0, Y4       // planes 2, 3 of codes 0-15
	VPUNPCKHDQ  Y3, Y2, Y5       // planes 2, 3 of codes 16-31
	VPUNPCKLQDQ Y5, Y4, Y8
	VPERMD  Y8, Y13, Y8          // plane 2
	CMPQ    R11, $3
	JEQ     emit
	VPUNPCKHQDQ Y5, Y4, Y9
	VPERMD  Y9, Y13, Y9          // plane 3

	// The planes bottom up, Y6 the current one: R10 the header of its
	// slice 8p, R12 the slices not yet stored.
emit:
	MOVQ DI, R10
	MOVQ BX, R12

plane:
	CMPQ R12, $8
	JLT  partial
	SLICE(168)
	SLICE(144)
	SLICE(120)
	SLICE(96)
	SLICE(72)
	SLICE(48)
	SLICE(24)
	SLICE(0)
	SUBQ    $8, R12
	JZ      next
	ADDQ    $192, R10
	VMOVDQU Y7, Y6
	VMOVDQU Y8, Y7
	VMOVDQU Y9, Y8
	JMP     plane

	// The partial top plane: drop the code bits ≥ spi, so its top
	// slice is at bit 7. The shift moves bits across byte boundaries
	// only into the low 8−R12 bits, which no slice reads.
partial:
	VPSLLW X12, Y6, Y6
	LEAQ   (R12)(R12*2), R8
	LEAQ   -24(R10)(R8*8), R10   // header of the plane's top slice

slice:
	SLICE(0)
	SUBQ $24, R10
	DECQ R12
	JNZ  slice

next:
	ADDQ $128, SI
	INCQ DX
	SUBQ $32, CX
	JGT  block

	// An odd block count leaves the last word's high dword: it holds
	// no code, so it is zero.
	TESTQ $1, DX
	JZ    reduce
	MOVQ  DI, R8
	MOVQ  BX, R12

zero:
	MOVQ (R8), R9
	MOVL $0, (R9)(DX*4)
	ADDQ $24, R8
	DECQ R12
	JNZ  zero

reduce:
	VEXTRACTI128 $1, Y15, X0
	VPOR    X0, X15, X0
	VPSHUFD $0x4e, X0, X1
	VPOR    X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VPOR    X1, X0, X0
	VMOVD   X0, AX
	MOVL    AX, ret+32(FP)
	VZEROUPPER
	RET

	// A last block of CX < 32 codes: masked loads read codes i < CX
	// and zero-pad the block, never touching memory past the codes.
short:
	VMOVQ        CX, X4
	VPBROADCASTD X4, Y4
	VPCMPGTD     codeIndex<>+0x00(SB), Y4, Y5
	VPMASKMOVD   (SI), Y5, Y0
	VPCMPGTD     codeIndex<>+0x20(SB), Y4, Y5
	VPMASKMOVD   32(SI), Y5, Y1
	VPCMPGTD     codeIndex<>+0x40(SB), Y4, Y5
	VPMASKMOVD   64(SI), Y5, Y2
	VPCMPGTD     codeIndex<>+0x60(SB), Y4, Y5
	VPMASKMOVD   96(SI), Y5, Y3
	JMP          transpose
