//go:build amd64 && !purego

#include "textflag.h"

// AVX-512 IFMA kernels: the 52-bit datapath. VPMADD52LUQ/HUQ multiply the low
// 52 bits of eight 64-bit lanes and ADD the low / high 52 bits of the 104-bit
// product into the destination, so a Shoup multiply is three multiply-adds
// and a mask where the AVX2 path (asm_amd64.s) spends 27 instructions
// emulating a 64x64 product.
//
// Every routine here runs only for moduli with 2q <= 2^52 (Modulus.Lane52):
// all values the kernels keep between steps live in [0, 2q), which is both
// the lazy-reduction invariant and the multiplier's input bound. The
// primitives (B = 2^52):
//
//	mulShoup52(x, w, ws)   x < B, w < q, ws = floor(w*B/q)
//	    t = hi52(x*ws); r = (lo52(x*w) + lo52(t*(B-q))) & (B-1)
//	    r = x*w - t*q exactly, in [0, 2q)              (Shoup with beta = B)
//	barrett52(x)           x < B, m = floor(B/q)
//	    t = hi52(x*m);  r = (x + lo52(t*(B-q))) & (B-1) = x - t*q in [0, 2q)
//	fold(v, c)             min(v, v-c) unsigned: v in [0, 2c) -> [0, c)
//	foldneg(v, c)          min(v, v+c) unsigned: v in (-c, c) mod 2^64 -> [0, c)
//
// Only AVX512F and AVX512IFMA instructions are used (ZMM forms throughout; the
// two narrow twiddle loads are VEX-encoded). Every routine ends in
// VZEROUPPER.
//
// Constant registers shared by all routines once set up by IFMACONSTS:
// Z31 = 2^52-1, Z30 = 2^52-q, Z29 = 2q, Z28 = q.

// IFMACONSTS loads the per-modulus constants from q in AX (clobbers AX, BX).
#define IFMACONSTS \
	VPBROADCASTQ AX, Z28       \
	VPADDQ Z28, Z28, Z29       \
	MOVQ $0x000fffffffffffff, BX \
	VPBROADCASTQ BX, Z31       \
	INCQ BX                    \
	SUBQ AX, BX                \
	VPBROADCASTQ BX, Z30

// MULSHOUP52 sets r = in*w - q*hi52(in*ws) in [0, 2q). in < 2^52. Clobbers t.
#define MULSHOUP52(in, w, ws, t, r) \
	VPXORQ t, t, t          \
	VPMADD52HUQ ws, in, t   \
	VPXORQ r, r, r          \
	VPMADD52LUQ w, in, r    \
	VPMADD52LUQ Z30, t, r   \
	VPANDQ Z31, r, r

// FOLD sets v = min(v, v-c): [0, 2c) -> [0, c). Clobbers t.
#define FOLD(v, c, t) \
	VPSUBQ c, v, t \
	VPMINUQ t, v, v

// FOLDNEG sets v = min(v, v+c): a difference in (-c, c) -> [0, c). Clobbers t.
#define FOLDNEG(v, c, t) \
	VPADDQ c, v, t \
	VPMINUQ t, v, v

// CTBFLY is one Cooley-Tukey butterfly on lanes x, y (both in [0, 2q)) with
// twiddle lanes w, ws: x' = x + y*w, y' = x - y*w, both folded to [0, 2q).
// Clobbers Z4..Z7.
#define CTBFLY(x, y, w, ws) \
	MULSHOUP52(y, w, ws, Z4, Z5) \
	VPSUBQ Z5, x, y          \
	VPADDQ Z5, x, x          \
	FOLD(x, Z29, Z6)         \
	FOLDNEG(y, Z29, Z7)

// GSBFLY is one Gentleman-Sande butterfly: x' = x + y, y' = (x - y)*w, both
// in [0, 2q). Clobbers Z4..Z7.
#define GSBFLY(x, y, w, ws) \
	VPSUBQ y, x, Z6          \
	VPADDQ y, x, x           \
	FOLD(x, Z29, Z7)         \
	FOLDNEG(Z6, Z29, Z7)     \
	MULSHOUP52(Z6, w, ws, Z4, y)

// Lane-index tables for the in-register stages (VPERMQ / VPERMI2Q).
DATA ·ifmaPerm+0x000(SB)/8, $0 // dup4: step-4 twiddle pair -> [a a a a b b b b]
DATA ·ifmaPerm+0x008(SB)/8, $0
DATA ·ifmaPerm+0x010(SB)/8, $0
DATA ·ifmaPerm+0x018(SB)/8, $0
DATA ·ifmaPerm+0x020(SB)/8, $1
DATA ·ifmaPerm+0x028(SB)/8, $1
DATA ·ifmaPerm+0x030(SB)/8, $1
DATA ·ifmaPerm+0x038(SB)/8, $1
DATA ·ifmaPerm+0x040(SB)/8, $0 // dup2: step-2 twiddle quad -> [a a b b c c d d]
DATA ·ifmaPerm+0x048(SB)/8, $0
DATA ·ifmaPerm+0x050(SB)/8, $1
DATA ·ifmaPerm+0x058(SB)/8, $1
DATA ·ifmaPerm+0x060(SB)/8, $2
DATA ·ifmaPerm+0x068(SB)/8, $2
DATA ·ifmaPerm+0x070(SB)/8, $3
DATA ·ifmaPerm+0x078(SB)/8, $3
DATA ·ifmaPerm+0x080(SB)/8, $0 // pairLo: [X0 X1 Y0 Y1 X4 X5 Y4 Y5]
DATA ·ifmaPerm+0x088(SB)/8, $1
DATA ·ifmaPerm+0x090(SB)/8, $8
DATA ·ifmaPerm+0x098(SB)/8, $9
DATA ·ifmaPerm+0x0a0(SB)/8, $4
DATA ·ifmaPerm+0x0a8(SB)/8, $5
DATA ·ifmaPerm+0x0b0(SB)/8, $12
DATA ·ifmaPerm+0x0b8(SB)/8, $13
DATA ·ifmaPerm+0x0c0(SB)/8, $2 // pairHi: [X2 X3 Y2 Y3 X6 X7 Y6 Y7]
DATA ·ifmaPerm+0x0c8(SB)/8, $3
DATA ·ifmaPerm+0x0d0(SB)/8, $10
DATA ·ifmaPerm+0x0d8(SB)/8, $11
DATA ·ifmaPerm+0x0e0(SB)/8, $6
DATA ·ifmaPerm+0x0e8(SB)/8, $7
DATA ·ifmaPerm+0x0f0(SB)/8, $14
DATA ·ifmaPerm+0x0f8(SB)/8, $15
DATA ·ifmaPerm+0x100(SB)/8, $0 // zipLo: [X0 Y0 X1 Y1 X2 Y2 X3 Y3]
DATA ·ifmaPerm+0x108(SB)/8, $8
DATA ·ifmaPerm+0x110(SB)/8, $1
DATA ·ifmaPerm+0x118(SB)/8, $9
DATA ·ifmaPerm+0x120(SB)/8, $2
DATA ·ifmaPerm+0x128(SB)/8, $10
DATA ·ifmaPerm+0x130(SB)/8, $3
DATA ·ifmaPerm+0x138(SB)/8, $11
DATA ·ifmaPerm+0x140(SB)/8, $4 // zipHi: [X4 Y4 X5 Y5 X6 Y6 X7 Y7]
DATA ·ifmaPerm+0x148(SB)/8, $12
DATA ·ifmaPerm+0x150(SB)/8, $5
DATA ·ifmaPerm+0x158(SB)/8, $13
DATA ·ifmaPerm+0x160(SB)/8, $6
DATA ·ifmaPerm+0x168(SB)/8, $14
DATA ·ifmaPerm+0x170(SB)/8, $7
DATA ·ifmaPerm+0x178(SB)/8, $15
DATA ·ifmaPerm+0x180(SB)/8, $0 // even: [A0 A2 A4 A6 B0 B2 B4 B6]
DATA ·ifmaPerm+0x188(SB)/8, $2
DATA ·ifmaPerm+0x190(SB)/8, $4
DATA ·ifmaPerm+0x198(SB)/8, $6
DATA ·ifmaPerm+0x1a0(SB)/8, $8
DATA ·ifmaPerm+0x1a8(SB)/8, $10
DATA ·ifmaPerm+0x1b0(SB)/8, $12
DATA ·ifmaPerm+0x1b8(SB)/8, $14
DATA ·ifmaPerm+0x1c0(SB)/8, $1 // odd: [A1 A3 A5 A7 B1 B3 B5 B7]
DATA ·ifmaPerm+0x1c8(SB)/8, $3
DATA ·ifmaPerm+0x1d0(SB)/8, $5
DATA ·ifmaPerm+0x1d8(SB)/8, $7
DATA ·ifmaPerm+0x1e0(SB)/8, $9
DATA ·ifmaPerm+0x1e8(SB)/8, $11
DATA ·ifmaPerm+0x1f0(SB)/8, $13
DATA ·ifmaPerm+0x1f8(SB)/8, $15
GLOBL ·ifmaPerm(SB), RODATA|NOPTR, $512

// func nttFwdStageIFMA(p *uint64, m, step int, roots, rootsSho *uint64, q uint64)
//
// One Cooley-Tukey stage with butterfly stride step >= 8: for each twiddle i
// in [0,m), butterfly x = p[2*i*step : +step], y = x+step with w = roots[i].
// rootsSho holds the 2^64 Shoup companions; floor(w*2^52/q) is their top 52
// bits, so one shift per twiddle replaces a second table. In and out [0, 2q).
TEXT ·nttFwdStageIFMA(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), R8
	MOVQ step+16(FP), R9
	MOVQ roots+24(FP), R10
	MOVQ rootsSho+32(FP), R11
	MOVQ q+40(FP), AX
	IFMACONSTS
	MOVQ R9, R13
	SHLQ $3, R13           // step*8: byte distance between legs

ffwd_outer:
	VPBROADCASTQ (R10), Z10 // w
	VPBROADCASTQ (R11), Z8
	VPSRLQ $12, Z8, Z8      // ws52
	ADDQ $8, R10
	ADDQ $8, R11
	MOVQ DI, SI             // x leg
	LEAQ (DI)(R13*1), BX    // y leg
	MOVQ R9, CX

ffwd_inner:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (BX), Z1
	CTBFLY(Z0, Z1, Z10, Z8)
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 Z1, (BX)
	ADDQ $64, SI
	ADDQ $64, BX
	SUBQ $8, CX
	JNZ ffwd_inner

	LEAQ (DI)(R13*2), DI
	DECQ R8
	JNZ ffwd_outer

	VZEROUPPER
	RET

// func nttFwdTailIFMA(p *uint64, n int, roots, rootsSho *uint64, q uint64)
//
// The last three Cooley-Tukey stages (stride 4, 2, 1) fused: 16 coefficients
// per iteration are loaded once, butterflied three times with in-register
// lane permutes between the stages, normalised to [0, q) and stored. roots /
// rootsSho are the table bases; stage stride s reads twiddles [n/2s, n/s).
TEXT ·nttFwdTailIFMA(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ roots+16(FP), R10
	MOVQ rootsSho+24(FP), R11
	MOVQ q+32(FP), AX
	IFMACONSTS
	LEAQ ·ifmaPerm(SB), BX
	VMOVDQU64 0x000(BX), Z20 // dup4
	VMOVDQU64 0x040(BX), Z21 // dup2
	VMOVDQU64 0x080(BX), Z22 // pairLo
	VMOVDQU64 0x0c0(BX), Z23 // pairHi
	VMOVDQU64 0x100(BX), Z24 // zipLo
	VMOVDQU64 0x140(BX), Z25 // zipHi
	// Twiddle cursors: stride 4 at index n/8, stride 2 at n/4, stride 1 at n/2.
	LEAQ (R10)(CX*1), R12    // roots + 8*(n/8)
	LEAQ (R11)(CX*1), R13
	LEAQ (R10)(CX*2), R14    // roots + 8*(n/4)
	LEAQ (R11)(CX*2), R15
	LEAQ (R10)(CX*4), R10    // roots + 8*(n/2)
	LEAQ (R11)(CX*4), R11

ftail_loop:
	VMOVDQU64 (DI), Z2       // A = c0..c7
	VMOVDQU64 64(DI), Z3     // B = c8..c15
	// stride 4: X = [A0-3 B0-3], Y = [A4-7 B4-7], twiddles [a a a a b b b b].
	VSHUFI64X2 $0x44, Z3, Z2, Z0
	VSHUFI64X2 $0xee, Z3, Z2, Z1
	VMOVDQU (R12), X8
	VMOVDQU (R13), X9
	VPERMQ Z8, Z20, Z10
	VPERMQ Z9, Z20, Z8
	VPSRLQ $12, Z8, Z8
	CTBFLY(Z0, Z1, Z10, Z8)
	// stride 2: X = [X0 X1 Y0 Y1 X4 X5 Y4 Y5], Y = [X2 X3 Y2 Y3 X6 X7 Y6 Y7].
	VMOVDQA64 Z22, Z2
	VPERMI2Q Z1, Z0, Z2
	VMOVDQA64 Z23, Z3
	VPERMI2Q Z1, Z0, Z3
	VMOVDQU (R14), Y8
	VMOVDQU (R15), Y9
	VPERMQ Z8, Z21, Z10
	VPERMQ Z9, Z21, Z8
	VPSRLQ $12, Z8, Z8
	CTBFLY(Z2, Z3, Z10, Z8)
	// stride 1: X = evens, Y = odds of the original order.
	VPUNPCKLQDQ Z3, Z2, Z0
	VPUNPCKHQDQ Z3, Z2, Z1
	VMOVDQU64 (R10), Z10
	VMOVDQU64 (R11), Z8
	VPSRLQ $12, Z8, Z8
	CTBFLY(Z0, Z1, Z10, Z8)
	FOLD(Z0, Z28, Z6)
	FOLD(Z1, Z28, Z7)
	// back to memory order.
	VMOVDQA64 Z24, Z2
	VPERMI2Q Z1, Z0, Z2
	VMOVDQA64 Z25, Z3
	VPERMI2Q Z1, Z0, Z3
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, 64(DI)
	ADDQ $128, DI
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $32, R14
	ADDQ $32, R15
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $16, CX
	JNZ ftail_loop

	VZEROUPPER
	RET

// func nttInvHeadIFMA(p *uint64, n int, roots, rootsSho *uint64, q uint64)
//
// The first three Gentleman-Sande stages (stride 1, 2, 4) fused, the mirror
// of nttFwdTailIFMA. In and out [0, 2q).
TEXT ·nttInvHeadIFMA(SB), NOSPLIT, $0-40
	MOVQ p+0(FP), DI
	MOVQ n+8(FP), CX
	MOVQ roots+16(FP), R10
	MOVQ rootsSho+24(FP), R11
	MOVQ q+32(FP), AX
	IFMACONSTS
	LEAQ ·ifmaPerm(SB), BX
	VMOVDQU64 0x000(BX), Z20 // dup4
	VMOVDQU64 0x040(BX), Z21 // dup2
	VMOVDQU64 0x080(BX), Z22 // pairLo
	VMOVDQU64 0x0c0(BX), Z23 // pairHi
	VMOVDQU64 0x180(BX), Z24 // even
	VMOVDQU64 0x1c0(BX), Z25 // odd
	LEAQ (R10)(CX*1), R12    // stride 4 twiddles at n/8
	LEAQ (R11)(CX*1), R13
	LEAQ (R10)(CX*2), R14    // stride 2 at n/4
	LEAQ (R11)(CX*2), R15
	LEAQ (R10)(CX*4), R10    // stride 1 at n/2
	LEAQ (R11)(CX*4), R11

ihead_loop:
	VMOVDQU64 (DI), Z2
	VMOVDQU64 64(DI), Z3
	// stride 1: X = evens, Y = odds.
	VMOVDQA64 Z24, Z0
	VPERMI2Q Z3, Z2, Z0
	VMOVDQA64 Z25, Z1
	VPERMI2Q Z3, Z2, Z1
	VMOVDQU64 (R10), Z10
	VMOVDQU64 (R11), Z8
	VPSRLQ $12, Z8, Z8
	GSBFLY(Z0, Z1, Z10, Z8)
	// stride 2: X = [c0 c1 c4 c5 ..], Y = [c2 c3 c6 c7 ..].
	VPUNPCKLQDQ Z1, Z0, Z2
	VPUNPCKHQDQ Z1, Z0, Z3
	VMOVDQU (R14), Y8
	VMOVDQU (R15), Y9
	VPERMQ Z8, Z21, Z10
	VPERMQ Z9, Z21, Z8
	VPSRLQ $12, Z8, Z8
	GSBFLY(Z2, Z3, Z10, Z8)
	// stride 4: X = [c0-3 c8-11], Y = [c4-7 c12-15].
	VMOVDQA64 Z22, Z0
	VPERMI2Q Z3, Z2, Z0
	VMOVDQA64 Z23, Z1
	VPERMI2Q Z3, Z2, Z1
	VMOVDQU (R12), X8
	VMOVDQU (R13), X9
	VPERMQ Z8, Z20, Z10
	VPERMQ Z9, Z20, Z8
	VPSRLQ $12, Z8, Z8
	GSBFLY(Z0, Z1, Z10, Z8)
	VSHUFI64X2 $0x44, Z1, Z0, Z2
	VSHUFI64X2 $0xee, Z1, Z0, Z3
	VMOVDQU64 Z2, (DI)
	VMOVDQU64 Z3, 64(DI)
	ADDQ $128, DI
	ADDQ $16, R12
	ADDQ $16, R13
	ADDQ $32, R14
	ADDQ $32, R15
	ADDQ $64, R10
	ADDQ $64, R11
	SUBQ $16, CX
	JNZ ihead_loop

	VZEROUPPER
	RET

// func nttInvStageIFMA(p *uint64, m, step int, roots, rootsSho *uint64, q uint64)
//
// One Gentleman-Sande stage with stride step >= 8. In and out [0, 2q).
TEXT ·nttInvStageIFMA(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), R8
	MOVQ step+16(FP), R9
	MOVQ roots+24(FP), R10
	MOVQ rootsSho+32(FP), R11
	MOVQ q+40(FP), AX
	IFMACONSTS
	MOVQ R9, R13
	SHLQ $3, R13

finv_outer:
	VPBROADCASTQ (R10), Z10
	VPBROADCASTQ (R11), Z8
	VPSRLQ $12, Z8, Z8
	ADDQ $8, R10
	ADDQ $8, R11
	MOVQ DI, SI
	LEAQ (DI)(R13*1), BX
	MOVQ R9, CX

finv_inner:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (BX), Z1
	GSBFLY(Z0, Z1, Z10, Z8)
	VMOVDQU64 Z0, (SI)
	VMOVDQU64 Z1, (BX)
	ADDQ $64, SI
	ADDQ $64, BX
	SUBQ $8, CX
	JNZ finv_inner

	LEAQ (DI)(R13*2), DI
	DECQ R8
	JNZ finv_outer

	VZEROUPPER
	RET

// func nttInvLastIFMA(x, y *uint64, n int, wN, wNs, wL, wLs, q, full uint64)
//
// The final Gentleman-Sande stage over the two halves x, y (n coefficients
// each) with the 1/N scaling folded into its twiddles: x' = (x+y)*wN,
// y' = (x-y)*wL. wNs / wLs are 2^64 Shoup companions. full != 0 reduces the
// outputs to [0, q); full == 0 leaves them in [0, 2q).
TEXT ·nttInvLastIFMA(SB), NOSPLIT, $0-72
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ q+56(FP), AX
	IFMACONSTS
	VPBROADCASTQ wN+24(FP), Z10
	VPBROADCASTQ wNs+32(FP), Z8
	VPSRLQ $12, Z8, Z8
	VPBROADCASTQ wL+40(FP), Z11
	VPBROADCASTQ wLs+48(FP), Z9
	VPSRLQ $12, Z9, Z9
	// full ? q : 2^63 — the final fold against 2^63 leaves [0, 2q) untouched.
	MOVQ full+64(FP), R8
	VMOVDQA64 Z28, Z12
	TESTQ R8, R8
	JNZ ilast_loop
	MOVQ $0x8000000000000000, BX
	VPBROADCASTQ BX, Z12

ilast_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DI), Z1
	VPSUBQ Z1, Z0, Z2
	VPADDQ Z1, Z0, Z0
	FOLD(Z0, Z29, Z6)
	FOLDNEG(Z2, Z29, Z7)
	MULSHOUP52(Z0, Z10, Z8, Z4, Z1)
	MULSHOUP52(Z2, Z11, Z9, Z4, Z3)
	FOLD(Z1, Z12, Z6)
	FOLD(Z3, Z12, Z7)
	VMOVDQU64 Z1, (SI)
	VMOVDQU64 Z3, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ ilast_loop

	VZEROUPPER
	RET

// func shoupMulVecIFMA(dst, src *uint64, n int, w, ws, q uint64)
//
// dst[k] = src[k]*w mod q in [0, q). src[k] < 2^52; ws is the 2^64 companion.
TEXT ·shoupMulVecIFMA(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ q+40(FP), AX
	IFMACONSTS
	VPBROADCASTQ w+24(FP), Z10
	VPBROADCASTQ ws+32(FP), Z8
	VPSRLQ $12, Z8, Z8

fsmv_loop:
	VMOVDQU64 (SI), Z0
	MULSHOUP52(Z0, Z10, Z8, Z4, Z1)
	FOLD(Z1, Z28, Z6)
	VMOVDQU64 Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ fsmv_loop

	VZEROUPPER
	RET

// func shoupMulSubVecIFMA(dst, x, sub *uint64, n int, w, ws, q, m52 uint64)
//
// dst[k] = (x[k] - sub[k]) * w mod q in [0, q). x[k] < 2q; sub[k] is ANY
// value below 2^52 (a residue of this or of another modulus): it is first
// reduced to [0, 2q) by barrett52 with m52 = floor(2^52/q).
TEXT ·shoupMulSubVecIFMA(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sub+16(FP), DX
	MOVQ n+24(FP), CX
	MOVQ q+48(FP), AX
	IFMACONSTS
	VPBROADCASTQ w+32(FP), Z10
	VPBROADCASTQ ws+40(FP), Z8
	VPSRLQ $12, Z8, Z8
	VPBROADCASTQ m52+56(FP), Z11

fsms_loop:
	VMOVDQU64 (SI), Z0
	VMOVDQU64 (DX), Z1
	VPXORQ Z4, Z4, Z4
	VPMADD52HUQ Z11, Z1, Z4  // t = hi52(sub*m52)
	VPMADD52LUQ Z30, Z4, Z1  // sub + lo52(t*(2^52-q))
	VPANDQ Z31, Z1, Z1       // sub mod' q in [0, 2q)
	VPSUBQ Z1, Z0, Z0
	FOLDNEG(Z0, Z29, Z6)     // x - sub in [0, 2q)
	MULSHOUP52(Z0, Z10, Z8, Z4, Z1)
	FOLD(Z1, Z28, Z6)
	VMOVDQU64 Z1, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ fsms_loop

	VZEROUPPER
	RET

// func mac52IFMA(dst *uint64, n int, xs, ys *[]uint64, l int, flags uint64, c *[4]uint64)
//
// dst[k] = (sum_j xs[j][k] * ys[j][k]  [+ dst[k]]) mod q, in [0, q): the one
// multiply-accumulate of the 52-bit datapath. xs and ys point at l slice
// headers (row j's data pointer sits at byte 24*j). Per term and per 8 lanes
// it is two instructions, acc_lo += lo52(x*y) and acc_hi += hi52(x*y); both
// operands must be below 2^52 and l below 2^12 so no lane overflows. The
// caller (Modulus.mac52Fits) also bounds the sum so that
// A = floor(sum / 2^52) < 2^52, which lets one tail finish the job:
//
//	sum = A*2^52 + L0,  A = acc_hi + (acc_lo >> 52),  L0 = acc_lo & (2^52-1)
//	r = mulShoup52(A, 2^52 mod q) + barrett52(L0)    in [0, 4q)
//	fold by 2q, fold by q.
//
// flags bit 0: ys[j] is a single word broadcast to every lane (BConv weights).
// flags bit 1: start the accumulator at dst[k] (< q) instead of 0.
// c = {q, floor(2^52/q), 2^52 mod q, floor((2^52 mod q)*2^52/q)}.
// 16 coefficients per iteration (two independent accumulator pairs).
TEXT ·mac52IFMA(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ n+8(FP), R15
	MOVQ l+32(FP), R14
	MOVQ flags+40(FP), R13
	MOVQ c+48(FP), DX
	MOVQ (DX), AX
	IFMACONSTS
	VPBROADCASTQ 8(DX), Z11   // m52
	VPBROADCASTQ 16(DX), Z10  // c52
	VPBROADCASTQ 24(DX), Z8   // c52s
	XORQ R12, R12             // byte offset into every row

mac_chunk:
	VPXORQ Z0, Z0, Z0         // acc_lo A
	VPXORQ Z1, Z1, Z1         // acc_hi A
	VPXORQ Z2, Z2, Z2         // acc_lo B
	VPXORQ Z3, Z3, Z3         // acc_hi B
	TESTQ $2, R13
	JZ mac_terms
	VMOVDQU64 (DI)(R12*1), Z0
	VMOVDQU64 64(DI)(R12*1), Z2

mac_terms:
	MOVQ xs+16(FP), R8
	MOVQ ys+24(FP), R9
	MOVQ R14, CX
	TESTQ $1, R13
	JNZ mac_bcst

mac_vec:
	MOVQ (R8), SI
	MOVQ (R9), BX
	ADDQ $24, R8
	ADDQ $24, R9
	VMOVDQU64 (SI)(R12*1), Z4
	VMOVDQU64 64(SI)(R12*1), Z5
	VMOVDQU64 (BX)(R12*1), Z6
	VMOVDQU64 64(BX)(R12*1), Z7
	VPMADD52LUQ Z6, Z4, Z0
	VPMADD52HUQ Z6, Z4, Z1
	VPMADD52LUQ Z7, Z5, Z2
	VPMADD52HUQ Z7, Z5, Z3
	DECQ CX
	JNZ mac_vec
	JMP mac_tail

mac_bcst:
	MOVQ (R8), SI
	MOVQ (R9), BX
	ADDQ $24, R8
	ADDQ $24, R9
	VPBROADCASTQ (BX), Z6
	VMOVDQU64 (SI)(R12*1), Z4
	VMOVDQU64 64(SI)(R12*1), Z5
	VPMADD52LUQ Z6, Z4, Z0
	VPMADD52HUQ Z6, Z4, Z1
	VPMADD52LUQ Z6, Z5, Z2
	VPMADD52HUQ Z6, Z5, Z3
	DECQ CX
	JNZ mac_bcst

mac_tail:
	// A = acc_hi + (acc_lo >> 52), L0 = acc_lo & mask.
	VPSRLQ $52, Z0, Z4
	VPSRLQ $52, Z2, Z5
	VPADDQ Z4, Z1, Z1
	VPADDQ Z5, Z3, Z3
	VPANDQ Z31, Z0, Z0
	VPANDQ Z31, Z2, Z2
	// rA = mulShoup52(A, c52).
	MULSHOUP52(Z1, Z10, Z8, Z4, Z5)
	MULSHOUP52(Z3, Z10, Z8, Z4, Z6)
	// rB = barrett52(L0), accumulated straight onto L0.
	VPXORQ Z4, Z4, Z4
	VPMADD52HUQ Z11, Z0, Z4
	VPMADD52LUQ Z30, Z4, Z0
	VPANDQ Z31, Z0, Z0
	VPXORQ Z4, Z4, Z4
	VPMADD52HUQ Z11, Z2, Z4
	VPMADD52LUQ Z30, Z4, Z2
	VPANDQ Z31, Z2, Z2
	VPADDQ Z5, Z0, Z0         // [0, 4q)
	VPADDQ Z6, Z2, Z2
	FOLD(Z0, Z29, Z4)
	FOLD(Z2, Z29, Z5)
	FOLD(Z0, Z28, Z4)
	FOLD(Z2, Z28, Z5)
	VMOVDQU64 Z0, (DI)(R12*1)
	VMOVDQU64 Z2, 64(DI)(R12*1)
	ADDQ $128, R12
	SUBQ $16, R15
	JNZ mac_chunk

	VZEROUPPER
	RET

// func addVecAVX512(dst, a, b *uint64, n int, q uint64)
//
// dst[k] = a[k] + b[k] mod q for a, b < q: s = a+b, min(s, s-q). Valid for
// any q < 2^63 (AVX512F only: serves both datapaths on an AVX-512 host).
TEXT ·addVecAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VPBROADCASTQ q+32(FP), Z28

fadd_loop:
	VMOVDQU64 (SI), Z0
	VPADDQ (DX), Z0, Z0
	FOLD(Z0, Z28, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ fadd_loop

	VZEROUPPER
	RET

// func subVecAVX512(dst, a, b *uint64, n int, q uint64)
//
// dst[k] = a[k] - b[k] mod q for a, b < q: d = a-b, min(d, d+q). a == nil
// reads as the zero vector (negation).
TEXT ·subVecAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VPBROADCASTQ q+32(FP), Z28
	VPXORQ Z0, Z0, Z0
	TESTQ SI, SI
	JZ fneg_loop

fsub_loop:
	VMOVDQU64 (SI), Z0
	VPSUBQ (DX), Z0, Z0
	FOLDNEG(Z0, Z28, Z1)
	VMOVDQU64 Z0, (DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ fsub_loop
	VZEROUPPER
	RET

fneg_loop:
	VPSUBQ (DX), Z0, Z2
	FOLDNEG(Z2, Z28, Z1)
	VMOVDQU64 Z2, (DI)
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ fneg_loop
	VZEROUPPER
	RET
