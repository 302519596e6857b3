//go:build amd64 && !purego

#include "textflag.h"

// AVX2 kernels for the Harvey NTT butterflies, Shoup multiply vectors, the
// HPS BConv accumulate and modular add/sub: the 64-bit datapath (the 52-bit
// one is asm_ifma_amd64.s). AVX2 has no 64x64->128 multiply, so every wide
// multiply is a 32-bit schoolbook over VPMULUDQ:
//
//	a*b = ll + (lh + hl)<<32 + hh<<64
//	  ll = alo*blo, lh = alo*bhi, hl = ahi*blo, hh = ahi*bhi
//	mullo64(a,b) = ll + ((lh + hl) << 32)                       (mod 2^64)
//	mulhi64(a,b): t2 = hl + (ll>>32)
//	              t3 = lh + (t2 & 0xffffffff)
//	              hi = hh + (t2>>32) + (t3>>32)
//
// Every value compared with VPCMPGTQ (which is signed) is < 2^63 — the lazy
// bounds 4q < 2^63 guaranteed by MaxModulusBits = 61 — except the 128-bit
// accumulator carry checks, which bias both operands by 2^63 first.
//
// Vector lengths (step, n, half) are multiples of 4; the Go dispatch layer
// guarantees this.

// SHOUPLAZY computes v = in*w - q*mulhi64(in, ws) in [0, 2q) for any 64-bit
// lanes of `in`. Constant registers: Y7=ws>>32, Y8=ws(lo), Y9=w>>32, Y10=w,
// Y11=q>>32, Y12=q, Y15=0xffffffff mask. in/out register: \vin (clobbers
// Y2..Y6, except \vin itself which receives the result).
#define SHOUPLAZY(vin) \
	VPSRLQ $32, vin, Y3   \ // in >> 32
	VPMULUDQ Y8, vin, Y4  \ // ll = inlo*wslo
	VPMULUDQ Y7, vin, Y5  \ // lh = inlo*wshi
	VPMULUDQ Y8, Y3, Y6   \ // hl = inhi*wslo
	VPMULUDQ Y7, Y3, Y2   \ // hh = inhi*wshi
	VPSRLQ $32, Y4, Y4    \ // t1 = ll >> 32
	VPADDQ Y4, Y6, Y6     \ // t2 = hl + t1
	VPAND Y15, Y6, Y4     \ // t2 & m32
	VPSRLQ $32, Y6, Y6    \ // t2 >> 32
	VPADDQ Y4, Y5, Y5     \ // t3 = lh + (t2 & m32)
	VPSRLQ $32, Y5, Y5    \ // t3 >> 32
	VPADDQ Y6, Y2, Y2     \
	VPADDQ Y5, Y2, Y2     \ // Y2 = t = mulhi64(in, ws)
	VPMULUDQ Y10, vin, Y4 \ // ll2 = inlo*wlo
	VPMULUDQ Y9, vin, Y5  \ // lh2 = inlo*whi
	VPMULUDQ Y10, Y3, Y6  \ // hl2 = inhi*wlo
	VPADDQ Y5, Y6, Y5     \
	VPSLLQ $32, Y5, Y5    \
	VPADDQ Y4, Y5, vin    \ // in*w mod 2^64
	VPSRLQ $32, Y2, Y3    \ // t >> 32
	VPMULUDQ Y12, Y2, Y4  \ // tlo*qlo
	VPMULUDQ Y11, Y2, Y5  \ // tlo*qhi
	VPMULUDQ Y12, Y3, Y6  \ // thi*qlo
	VPADDQ Y5, Y6, Y5     \
	VPSLLQ $32, Y5, Y5    \
	VPADDQ Y4, Y5, Y2     \ // t*q mod 2^64
	VPSUBQ Y2, vin, vin     // in*w - t*q in [0, 2q)

// func nttFwdStageAVX2(p *uint64, m, step int, roots, rootsSho *uint64, q uint64)
//
// One Cooley-Tukey stage: for each twiddle i in [0,m), butterfly the block
// x = p[2*i*step : ...+step], y = x+step with w = roots[i], keeping
// coefficients in [0, 4q) (fold the even leg, lazy-multiply the odd leg).
TEXT ·nttFwdStageAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), R8
	MOVQ step+16(FP), R9
	MOVQ roots+24(FP), R10
	MOVQ rootsSho+32(FP), R11
	MOVQ q+40(FP), AX

	// Constants: Y11=q>>32, Y12=q, Y13=2q, Y14=2q-1, Y15=m32.
	MOVQ AX, X0
	VPBROADCASTQ X0, Y12
	VPSRLQ $32, Y12, Y11
	VPADDQ Y12, Y12, Y13
	VPCMPEQD Y14, Y14, Y14 // all ones = -1 per lane
	VPSRLQ $32, Y14, Y15   // m32
	VPADDQ Y13, Y14, Y14   // 2q - 1

	MOVQ R9, R13
	SHLQ $3, R13           // step*8: byte distance between legs

fwd_outer:
	TESTQ R8, R8
	JZ fwd_done
	VPBROADCASTQ (R10), Y10 // w
	ADDQ $8, R10
	VPSRLQ $32, Y10, Y9
	VPBROADCASTQ (R11), Y8 // ws
	ADDQ $8, R11
	VPSRLQ $32, Y8, Y7

	MOVQ DI, SI            // x leg
	MOVQ DI, BX
	ADDQ R13, BX           // y leg
	MOVQ R9, CX            // butterflies this block

fwd_inner:
	VMOVDQU (SI), Y0       // u
	VMOVDQU (BX), Y1       // y
	// fold u into [0, 2q)
	VPCMPGTQ Y14, Y0, Y2   // u > 2q-1
	VPAND Y13, Y2, Y2
	VPSUBQ Y2, Y0, Y0
	SHOUPLAZY(Y1)          // v = y*w mod' q in [0, 2q)
	VPADDQ Y1, Y0, Y2      // x' = u + v
	VMOVDQU Y2, (SI)
	VPADDQ Y13, Y0, Y0
	VPSUBQ Y1, Y0, Y0      // y' = u + 2q - v
	VMOVDQU Y0, (BX)
	ADDQ $32, SI
	ADDQ $32, BX
	SUBQ $4, CX
	JNZ fwd_inner

	LEAQ (DI)(R13*2), DI   // next block
	DECQ R8
	JMP fwd_outer

fwd_done:
	VZEROUPPER
	RET

// func nttInvStageAVX2(p *uint64, m, step int, roots, rootsSho *uint64, q uint64)
//
// One Gentleman-Sande stage: s = x+y folded into [0, 2q); the difference leg
// x+2q-y re-enters [0, 2q) through the lazy Shoup multiply.
TEXT ·nttInvStageAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), R8
	MOVQ step+16(FP), R9
	MOVQ roots+24(FP), R10
	MOVQ rootsSho+32(FP), R11
	MOVQ q+40(FP), AX

	MOVQ AX, X0
	VPBROADCASTQ X0, Y12
	VPSRLQ $32, Y12, Y11
	VPADDQ Y12, Y12, Y13
	VPCMPEQD Y14, Y14, Y14
	VPSRLQ $32, Y14, Y15
	VPADDQ Y13, Y14, Y14   // 2q - 1

	MOVQ R9, R13
	SHLQ $3, R13

inv_outer:
	TESTQ R8, R8
	JZ inv_done
	VPBROADCASTQ (R10), Y10
	ADDQ $8, R10
	VPSRLQ $32, Y10, Y9
	VPBROADCASTQ (R11), Y8
	ADDQ $8, R11
	VPSRLQ $32, Y8, Y7

	MOVQ DI, SI
	MOVQ DI, BX
	ADDQ R13, BX
	MOVQ R9, CX

inv_inner:
	VMOVDQU (SI), Y0       // x
	VMOVDQU (BX), Y1       // y
	VPADDQ Y1, Y0, Y2      // s = x + y (< 4q)
	VPCMPGTQ Y14, Y2, Y3   // s > 2q-1
	VPAND Y13, Y3, Y3
	VPSUBQ Y3, Y2, Y2      // fold into [0, 2q)
	VMOVDQU Y2, (SI)
	VPADDQ Y13, Y0, Y0
	VPSUBQ Y1, Y0, Y1      // d = x + 2q - y (< 4q)
	SHOUPLAZY(Y1)
	VMOVDQU Y1, (BX)
	ADDQ $32, SI
	ADDQ $32, BX
	SUBQ $4, CX
	JNZ inv_inner

	LEAQ (DI)(R13*2), DI
	DECQ R8
	JMP inv_outer

inv_done:
	VZEROUPPER
	RET

// func nttInvCombineAVX2(x, y *uint64, n int, q uint64)
//
// Final-stage leg formation: x[j], y[j] = x[j]+y[j], x[j]+2q-y[j]. Inputs
// < 2q, outputs < 4q (the following Shoup multiply is exact for any 64-bit
// input, so no fold is needed).
TEXT ·nttInvCombineAVX2(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), BX
	MOVQ n+16(FP), CX
	MOVQ q+24(FP), AX

	MOVQ AX, X0
	VPBROADCASTQ X0, Y13
	VPADDQ Y13, Y13, Y13   // 2q

combine_loop:
	VMOVDQU (SI), Y0
	VMOVDQU (BX), Y1
	VPADDQ Y1, Y0, Y2      // x + y
	VMOVDQU Y2, (SI)
	VPADDQ Y13, Y0, Y0
	VPSUBQ Y1, Y0, Y0      // x + 2q - y
	VMOVDQU Y0, (BX)
	ADDQ $32, SI
	ADDQ $32, BX
	SUBQ $4, CX
	JNZ combine_loop

	VZEROUPPER
	RET

// func shoupMulVecAVX2(dst, src *uint64, n int, w, ws, q, full uint64)
//
// dst[k] = src[k]*w mod q (Shoup; exact for any 64-bit src). full != 0 fully
// reduces into [0, q); full == 0 leaves the lazy [0, 2q) result.
TEXT ·shoupMulVecAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ w+24(FP), AX
	MOVQ ws+32(FP), BX
	MOVQ q+40(FP), DX
	MOVQ full+48(FP), R8

	MOVQ AX, X0
	VPBROADCASTQ X0, Y10   // w
	VPSRLQ $32, Y10, Y9
	MOVQ BX, X0
	VPBROADCASTQ X0, Y8    // ws
	VPSRLQ $32, Y8, Y7
	MOVQ DX, X0
	VPBROADCASTQ X0, Y12   // q
	VPSRLQ $32, Y12, Y11
	VPCMPEQD Y14, Y14, Y14
	VPSRLQ $32, Y14, Y15   // m32
	VPADDQ Y12, Y14, Y14   // q - 1

smv_loop:
	VMOVDQU (SI), Y1
	SHOUPLAZY(Y1)          // in [0, 2q)
	TESTQ R8, R8
	JZ smv_store
	VPCMPGTQ Y14, Y1, Y2   // r > q-1
	VPAND Y12, Y2, Y2
	VPSUBQ Y2, Y1, Y1      // into [0, q)
smv_store:
	VMOVDQU Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ smv_loop

	VZEROUPPER
	RET

// func shoupMulSubVecAVX2(dst, x, sub *uint64, n int, w, ws, q uint64)
//
// dst[k] = (x[k] + 2q - sub[k]) * w mod q, fully reduced. Requires
// x[k], sub[k] < 2q so the lazy difference stays below 4q.
TEXT ·shoupMulSubVecAVX2(SB), NOSPLIT, $0-56
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ sub+16(FP), BX
	MOVQ n+24(FP), CX
	MOVQ w+32(FP), AX
	MOVQ ws+40(FP), DX
	MOVQ q+48(FP), R9

	MOVQ AX, X0
	VPBROADCASTQ X0, Y10
	VPSRLQ $32, Y10, Y9
	MOVQ DX, X0
	VPBROADCASTQ X0, Y8
	VPSRLQ $32, Y8, Y7
	MOVQ R9, X0
	VPBROADCASTQ X0, Y12
	VPSRLQ $32, Y12, Y11
	VPADDQ Y12, Y12, Y13   // 2q
	VPCMPEQD Y14, Y14, Y14
	VPSRLQ $32, Y14, Y15
	VPADDQ Y12, Y14, Y14   // q - 1

smsv_loop:
	VMOVDQU (SI), Y1
	VMOVDQU (BX), Y0
	VPADDQ Y13, Y1, Y1
	VPSUBQ Y0, Y1, Y1      // x + 2q - sub (< 4q)
	SHOUPLAZY(Y1)
	VPCMPGTQ Y14, Y1, Y2
	VPAND Y12, Y2, Y2
	VPSUBQ Y2, Y1, Y1
	VMOVDQU Y1, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	SUBQ $4, CX
	JNZ smsv_loop

	VZEROUPPER
	RET

// func bconvAccumAVX2(dst, src *uint64, n, stride, l int, ws *uint64, q, brc0, brc1 uint64)
//
// dst[k] = (sum_i src[i*stride+k] * ws[i]) mod q: 128-bit lane accumulators
// over the strided arena rows, then one vectorized Barrett reduction per
// lane. Caller bounds l by AccumCapacity (so acc_hi < q < 2^61).
//
// Two independent 4-lane accumulator chains (8 coefficients per iteration)
// run interleaved so the carry-propagation latency of one chain hides under
// the multiplies of the other; a single-quad loop handles the n%8 == 4
// remainder.
//
// The accumulator low words stay BIASED by 2^63 throughout the MAC loop:
// carry-out of acc_lo += lo is then one signed compare of the biased sum
// against the biased previous value (a <u b  <=>  a^2^63 <s b^2^63), with no
// per-term XORs. The bias is removed once, in the reduction tail.
//
// The tail estimates the Barrett quotient as
//
//	qhat = mullo(hi,c1) + mulhi(hi,c0) + mulhi(lo,c1)
//
// dropping the low-word carries and the mulhi(lo,c0) term of the exact
// Modulus.Reduce estimate. Each dropped carry lowers qhat by at most 1
// (total <= 2), on top of Barrett's own error <= 2, so r = lo - qhat*q lands
// in [0, 5q). 5q can exceed 2^63, so the first conditional subtraction (by
// 4q) compares sign-biased; after it r < 4q < 2^63 and the 2q and q steps
// compare directly. The result is exact: differential tests pin it bit-for-
// bit against the scalar path.

// BCMAC: one 128-bit MAC step for the 4 lanes at OFF(BX): full schoolbook
// product of the lanes with the broadcast term weight (Y7 = w, Y8 = w>>32),
// accumulated into ACCL (biased low word) / ACCH. Clobbers Y0..Y4.
#define BCMAC(OFF, ACCL, ACCH) \
	VMOVDQU OFF(BX), Y0   \ // x
	VPSRLQ $32, Y0, Y1    \ // x >> 32
	VPMULUDQ Y7, Y0, Y2   \ // ll = xlo*wlo
	VPMULUDQ Y8, Y0, Y3   \ // lh = xlo*whi
	VPMULUDQ Y7, Y1, Y4   \ // hl = xhi*wlo
	VPMULUDQ Y8, Y1, Y1   \ // hh = xhi*whi (x>>32 dead)
	VPSRLQ $32, Y2, Y0    \ // ll >> 32 (x dead)
	VPADDQ Y0, Y4, Y4     \ // t2 = hl + (ll>>32)
	VPSRLQ $32, Y4, Y0    \
	VPADDQ Y0, Y1, Y1     \ // hh += t2 >> 32
	VPAND Y15, Y4, Y0     \
	VPADDQ Y0, Y3, Y3     \ // t3 = lh + (t2 & m32)
	VPSRLQ $32, Y3, Y0    \
	VPADDQ Y0, Y1, Y1     \ // phi = mulhi64(x, w)
	VPSLLQ $32, Y3, Y3    \
	VPAND Y15, Y2, Y2     \
	VPOR Y3, Y2, Y2       \ // plo = mullo64(x, w)
	VPADDQ Y2, ACCL, Y2   \ // sum_b = acc_b + plo
	VPCMPGTQ Y2, ACCL, Y3 \ // carry: acc_b >s sum_b  <=>  acc +u plo wrapped
	VMOVDQA Y2, ACCL      \
	VPSUBQ Y3, ACCH, ACCH \ // acc_hi += carry
	VPADDQ Y1, ACCH, ACCH   // acc_hi += phi

// BCTAIL: reduce the (ACCH, biased ACCL) accumulator mod q and store at
// OFF(DI). Constant registers: Y7 = c1, Y8 = c1>>32, Y9 = c0, Y10 = c0>>32,
// Y11 = q (plus Y14 = 2^63, Y15 = m32). Clobbers Y0..Y4 and both acc
// registers; the other quad's accumulators are untouched.
#define BCTAIL(OFF, ACCL, ACCH) \
	VPXOR Y14, ACCL, ACCL \ // un-bias: lo
	/* m2h = mulhi64(lo, c1) -> Y4 */ \
	VPSRLQ $32, ACCL, Y0  \ // lo >> 32
	VPMULUDQ Y7, ACCL, Y1 \ // ll
	VPMULUDQ Y8, ACCL, Y2 \ // lh
	VPMULUDQ Y7, Y0, Y3   \ // hl
	VPMULUDQ Y8, Y0, Y4   \ // hh
	VPSRLQ $32, Y1, Y1    \
	VPADDQ Y1, Y3, Y3     \ // t2 = hl + (ll>>32)
	VPSRLQ $32, Y3, Y1    \
	VPADDQ Y1, Y4, Y4     \
	VPAND Y15, Y3, Y1     \
	VPADDQ Y1, Y2, Y2     \ // t3 = lh + (t2 & m32)
	VPSRLQ $32, Y2, Y1    \
	VPADDQ Y1, Y4, Y4     \ // m2h
	/* tl = mullo64(hi, c1), sharing hi>>32 in Y0 */ \
	VPSRLQ $32, ACCH, Y0  \ // hi >> 32
	VPMULUDQ Y7, ACCH, Y1 \ // ll
	VPMULUDQ Y8, ACCH, Y2 \ // lh
	VPMULUDQ Y7, Y0, Y3   \ // hl
	VPADDQ Y3, Y2, Y2     \
	VPSLLQ $32, Y2, Y2    \
	VPADDQ Y2, Y1, Y1     \ // tl
	VPADDQ Y1, Y4, Y4     \ // qhat = m2h + tl
	/* m1h = mulhi64(hi, c0); hi>>32 still in Y0 */ \
	VPMULUDQ Y9, ACCH, Y1  \ // ll
	VPMULUDQ Y10, ACCH, Y2 \ // lh
	VPMULUDQ Y9, Y0, Y3    \ // hl
	VPSRLQ $32, Y1, Y1     \
	VPADDQ Y1, Y3, Y3      \ // t2 (ll dead)
	VPMULUDQ Y10, Y0, Y1   \ // hh (hi>>32 dead)
	VPSRLQ $32, Y3, Y0     \
	VPADDQ Y0, Y1, Y1      \
	VPAND Y15, Y3, Y0      \
	VPADDQ Y0, Y2, Y2      \ // t3
	VPSRLQ $32, Y2, Y0     \
	VPADDQ Y0, Y1, Y1      \ // m1h
	VPADDQ Y1, Y4, Y4      \ // qhat = m2h + tl + m1h (mod 2^64)
	/* r = lo - qhat*q (mod 2^64) */ \
	VPSRLQ $32, Y4, Y0    \
	VPSRLQ $32, Y11, Y2   \ // q >> 32
	VPMULUDQ Y11, Y4, Y1  \ // ll
	VPMULUDQ Y2, Y4, Y3   \ // lh
	VPMULUDQ Y11, Y0, Y0  \ // hl
	VPADDQ Y0, Y3, Y3     \
	VPSLLQ $32, Y3, Y3    \
	VPADDQ Y3, Y1, Y1     \ // qhat*q mod 2^64
	VPSUBQ Y1, ACCL, ACCL \ // r in [0, 5q)
	/* conditional -4q (sign-biased compare: 5q may exceed 2^63) */ \
	VPSLLQ $2, Y11, Y0    \ // 4q
	VPCMPEQD Y2, Y2, Y2   \ // all ones = -1
	VPADDQ Y2, Y0, Y3     \ // 4q - 1
	VPXOR Y14, Y3, Y3     \
	VPXOR Y14, ACCL, Y1   \
	VPCMPGTQ Y3, Y1, Y1   \ // r >u 4q-1
	VPAND Y0, Y1, Y1      \
	VPSUBQ Y1, ACCL, ACCL \ // r in [0, 4q) < 2^63
	/* conditional -2q, -q (plain signed compares) */ \
	VPADDQ Y11, Y11, Y0   \ // 2q
	VPADDQ Y2, Y0, Y3     \ // 2q - 1
	VPCMPGTQ Y3, ACCL, Y1 \
	VPAND Y0, Y1, Y1      \
	VPSUBQ Y1, ACCL, ACCL \
	VPADDQ Y2, Y11, Y3    \ // q - 1
	VPCMPGTQ Y3, ACCL, Y1 \
	VPAND Y11, Y1, Y1     \
	VPSUBQ Y1, ACCL, ACCL \
	VMOVDQU ACCL, OFF(DI)

TEXT ·bconvAccumAVX2(SB), NOSPLIT, $0-72
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R15
	MOVQ stride+24(FP), R9
	MOVQ l+32(FP), R8
	MOVQ ws+40(FP), R10
	SHLQ $3, R9            // stride in bytes

	VPCMPEQD Y15, Y15, Y15
	VPSLLQ $63, Y15, Y14   // sign = 2^63
	VPSRLQ $32, Y15, Y15   // m32

bc_pair:
	CMPQ R15, $8
	JLT bc_single
	// acc A = Y5 (biased lo) / Y6 (hi); acc B = Y12 / Y13.
	VMOVDQA Y14, Y5
	VPXOR Y6, Y6, Y6
	VMOVDQA Y14, Y12
	VPXOR Y13, Y13, Y13
	MOVQ SI, BX            // row pointer
	MOVQ R10, DX           // ws pointer
	MOVQ R8, CX            // term counter

bc_mac2:
	VPBROADCASTQ (DX), Y7  // w (shared by both quads)
	ADDQ $8, DX
	VPSRLQ $32, Y7, Y8     // w >> 32
	BCMAC(0, Y5, Y6)
	BCMAC(32, Y12, Y13)
	ADDQ R9, BX            // next row, same coefficients
	DECQ CX
	JNZ bc_mac2

	// Reduction tails (constants shared by both quads).
	VPBROADCASTQ brc0+56(FP), Y7  // c1 = high Barrett word
	VPSRLQ $32, Y7, Y8
	VPBROADCASTQ brc1+64(FP), Y9  // c0 = low Barrett word
	VPSRLQ $32, Y9, Y10
	VPBROADCASTQ q+48(FP), Y11
	BCTAIL(0, Y5, Y6)
	BCTAIL(32, Y12, Y13)

	ADDQ $64, DI
	ADDQ $64, SI
	SUBQ $8, R15
	JMP bc_pair

bc_single:
	TESTQ R15, R15
	JZ bc_done
	// One remaining quad (n % 8 == 4): same pipeline, A chain only.
	VMOVDQA Y14, Y5
	VPXOR Y6, Y6, Y6
	MOVQ SI, BX
	MOVQ R10, DX
	MOVQ R8, CX

bc_mac1:
	VPBROADCASTQ (DX), Y7
	ADDQ $8, DX
	VPSRLQ $32, Y7, Y8
	BCMAC(0, Y5, Y6)
	ADDQ R9, BX
	DECQ CX
	JNZ bc_mac1

	VPBROADCASTQ brc0+56(FP), Y7  // c1 = high Barrett word
	VPSRLQ $32, Y7, Y8
	VPBROADCASTQ brc1+64(FP), Y9  // c0 = low Barrett word
	VPSRLQ $32, Y9, Y10
	VPBROADCASTQ q+48(FP), Y11
	BCTAIL(0, Y5, Y6)

bc_done:
	VZEROUPPER
	RET

// func bconvShoupAVX2(dst, src *uint64, n, stride, l int, ws, wsSho *uint64, q uint64)
//
// dst[k] = (sum_i src[i*stride+k] * ws[i]) mod q for SMALL l, via per-term
// lazy Shoup multiplies instead of a 128-bit accumulator: each term
// r_i = x*w - mulhi(x, wsSho)*q lands in [0, 2q) (exact for any 64-bit x),
// the running sum folds by 2q to keep acc < 2q, and one conditional
// subtraction at the end fully reduces. No Barrett tail, so for l <= ~6 this
// beats the schoolbook MAC above; the Go dispatch picks per l. Result is
// bit-identical to the accumulating path (both are the exact mod-q sum).
//
// All compared values stay < 4q < 2^63, so plain signed VPCMPGTQ is safe.
TEXT ·bconvShoupAVX2(SB), NOSPLIT, $0-64
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), R15
	MOVQ stride+24(FP), R9
	MOVQ l+32(FP), R8
	MOVQ ws+40(FP), R10
	MOVQ wsSho+48(FP), R11
	SHLQ $3, R9            // stride in bytes

	VPCMPEQD Y15, Y15, Y15
	VPSRLQ $32, Y15, Y15   // m32
	VPBROADCASTQ q+56(FP), Y14
	VPADDQ Y14, Y14, Y13   // 2q
	VPCMPEQD Y7, Y7, Y7    // all ones = -1
	VPADDQ Y7, Y13, Y12    // 2q - 1

bs_chunk:
	VPXOR Y9, Y9, Y9       // acc
	MOVQ SI, BX            // row pointer
	MOVQ R10, DX           // ws pointer
	MOVQ R11, AX           // wsSho pointer
	MOVQ R8, CX            // term counter

bs_term:
	VPBROADCASTQ (DX), Y10 // w
	VPBROADCASTQ (AX), Y11 // wsSho
	ADDQ $8, DX
	ADDQ $8, AX
	VMOVDQU (BX), Y0       // x
	ADDQ R9, BX            // next row, same coefficients
	// t = mulhi64(x, wsSho)
	VPSRLQ $32, Y0, Y1     // xh
	VPSRLQ $32, Y11, Y2    // wsSho >> 32
	VPMULUDQ Y11, Y0, Y3   // ll
	VPMULUDQ Y2, Y0, Y4    // lh
	VPMULUDQ Y11, Y1, Y5   // hl
	VPMULUDQ Y2, Y1, Y6    // hh
	VPSRLQ $32, Y3, Y3     // ll >> 32
	VPADDQ Y3, Y5, Y5      // t2 = hl + (ll>>32)
	VPSRLQ $32, Y5, Y3
	VPADDQ Y3, Y6, Y6
	VPAND Y15, Y5, Y3
	VPADDQ Y3, Y4, Y4      // t3 = lh + (t2 & m32)
	VPSRLQ $32, Y4, Y3
	VPADDQ Y3, Y6, Y6      // t
	// xw = mullo64(x, w)
	VPSRLQ $32, Y10, Y2    // w >> 32
	VPMULUDQ Y10, Y0, Y3   // ll2
	VPMULUDQ Y2, Y0, Y4    // lh2
	VPMULUDQ Y10, Y1, Y5   // hl2 (xh dead)
	VPADDQ Y4, Y5, Y4
	VPSLLQ $32, Y4, Y4
	VPADDQ Y3, Y4, Y0      // x*w mod 2^64
	// tq = mullo64(t, q)
	VPSRLQ $32, Y6, Y1     // th
	VPSRLQ $32, Y14, Y2    // q >> 32
	VPMULUDQ Y14, Y6, Y3
	VPMULUDQ Y2, Y6, Y4
	VPMULUDQ Y14, Y1, Y5
	VPADDQ Y4, Y5, Y4
	VPSLLQ $32, Y4, Y4
	VPADDQ Y3, Y4, Y3      // t*q mod 2^64
	VPSUBQ Y3, Y0, Y0      // r = x*w - t*q in [0, 2q)
	// acc = (acc + r) folded to < 2q
	VPADDQ Y0, Y9, Y9      // acc < 4q
	VPCMPGTQ Y12, Y9, Y1   // acc > 2q-1
	VPAND Y13, Y1, Y1
	VPSUBQ Y1, Y9, Y9      // acc < 2q
	DECQ CX
	JNZ bs_term

	// fully reduce: acc < 2q -> one conditional subtraction
	VPCMPEQD Y0, Y0, Y0
	VPADDQ Y0, Y14, Y1     // q - 1
	VPCMPGTQ Y1, Y9, Y0
	VPAND Y14, Y0, Y0
	VPSUBQ Y0, Y9, Y9
	VMOVDQU Y9, (DI)

	ADDQ $32, DI
	ADDQ $32, SI
	SUBQ $4, R15
	JNZ bs_chunk

	VZEROUPPER
	RET

// func addVecAVX2(dst, a, b *uint64, n int, q uint64)
//
// dst[k] = a[k] + b[k] mod q for a, b < q: s = a+b, then s-q wherever that is
// not negative (VBLENDVPD selects on the sign bit). Valid for any q < 2^62.
// n is a multiple of 8.
TEXT ·addVecAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VPBROADCASTQ q+32(FP), Y15

addv_loop:
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y2
	VPADDQ (DX), Y0, Y0       // s
	VPADDQ 32(DX), Y2, Y2
	VPSUBQ Y15, Y0, Y1        // s - q
	VPSUBQ Y15, Y2, Y3
	VBLENDVPD Y1, Y0, Y1, Y0  // s-q < 0 ? s : s-q
	VBLENDVPD Y3, Y2, Y3, Y2
	VMOVDQU Y0, (DI)
	VMOVDQU Y2, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ addv_loop

	VZEROUPPER
	RET

// func subVecAVX2(dst, a, b *uint64, n int, q uint64)
//
// dst[k] = a[k] - b[k] mod q for a, b < q: d = a-b, then d+q wherever d is
// negative. a == nil reads as the zero vector (negation). n is a multiple
// of 8.
TEXT ·subVecAVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	VPBROADCASTQ q+32(FP), Y15
	VPXOR Y0, Y0, Y0
	VPXOR Y2, Y2, Y2

subv_loop:
	TESTQ SI, SI
	JZ subv_diff
	VMOVDQU (SI), Y0
	VMOVDQU 32(SI), Y2
	ADDQ $64, SI
subv_diff:
	VPSUBQ (DX), Y0, Y4       // d
	VPSUBQ 32(DX), Y2, Y5
	VPADDQ Y15, Y4, Y1        // d + q
	VPADDQ Y15, Y5, Y3
	VBLENDVPD Y4, Y1, Y4, Y4  // d < 0 ? d+q : d
	VBLENDVPD Y5, Y3, Y5, Y5
	VMOVDQU Y4, (DI)
	VMOVDQU Y5, 32(DI)
	ADDQ $64, DX
	ADDQ $64, DI
	SUBQ $8, CX
	JNZ subv_loop

	VZEROUPPER
	RET

// func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
