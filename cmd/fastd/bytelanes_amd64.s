//go:build amd64 && !purego

#include "textflag.h"

// Byte-lane kernels of the envelope (bytelanes_amd64.go): base64 blocks and
// the plain-string test, 64 bytes a step. They run only on the avx512ifma
// kernel path, which requires AVX512F, BW and VBMI (ring's kernelPathFor).
// Each routine does only whole blocks and reports how far it got; the
// caller finishes with encoding/base64 or its Go loop. Every routine ends in
// VZEROUPPER.

// VPERMB indices that spread 48 input bytes over 16 dwords as
// [s1 s0 s2 s1], one 3-byte group per dword.
DATA ·encSpread+0x00(SB)/8, $0x0405030401020001
DATA ·encSpread+0x08(SB)/8, $0x0a0b090a07080607
DATA ·encSpread+0x10(SB)/8, $0x10110f100d0e0c0d
DATA ·encSpread+0x18(SB)/8, $0x1617151613141213
DATA ·encSpread+0x20(SB)/8, $0x1c1d1b1c191a1819
DATA ·encSpread+0x28(SB)/8, $0x222321221f201e1f
DATA ·encSpread+0x30(SB)/8, $0x2829272825262425
DATA ·encSpread+0x38(SB)/8, $0x2e2f2d2e2b2c2a2b
GLOBL ·encSpread(SB), RODATA|NOPTR, $64

DATA ·encAlphabet+0x00(SB)/8, $"ABCDEFGH"
DATA ·encAlphabet+0x08(SB)/8, $"IJKLMNOP"
DATA ·encAlphabet+0x10(SB)/8, $"QRSTUVWX"
DATA ·encAlphabet+0x18(SB)/8, $"YZabcdef"
DATA ·encAlphabet+0x20(SB)/8, $"ghijklmn"
DATA ·encAlphabet+0x28(SB)/8, $"opqrstuv"
DATA ·encAlphabet+0x30(SB)/8, $"wxyz0123"
DATA ·encAlphabet+0x38(SB)/8, $"456789+/"
GLOBL ·encAlphabet(SB), RODATA|NOPTR, $64

// A character's sextet, indexed by its low 7 bits; 0x80 marks a byte outside
// the alphabet.
DATA ·decSextet+0x00(SB)/8, $0x8080808080808080
DATA ·decSextet+0x08(SB)/8, $0x8080808080808080
DATA ·decSextet+0x10(SB)/8, $0x8080808080808080
DATA ·decSextet+0x18(SB)/8, $0x8080808080808080
DATA ·decSextet+0x20(SB)/8, $0x8080808080808080
DATA ·decSextet+0x28(SB)/8, $0x3f8080803e808080
DATA ·decSextet+0x30(SB)/8, $0x3b3a393837363534
DATA ·decSextet+0x38(SB)/8, $0x8080808080803d3c
DATA ·decSextet+0x40(SB)/8, $0x0605040302010080
DATA ·decSextet+0x48(SB)/8, $0x0e0d0c0b0a090807
DATA ·decSextet+0x50(SB)/8, $0x161514131211100f
DATA ·decSextet+0x58(SB)/8, $0x8080808080191817
DATA ·decSextet+0x60(SB)/8, $0x201f1e1d1c1b1a80
DATA ·decSextet+0x68(SB)/8, $0x2827262524232221
DATA ·decSextet+0x70(SB)/8, $0x302f2e2d2c2b2a29
DATA ·decSextet+0x78(SB)/8, $0x8080808080333231
GLOBL ·decSextet(SB), RODATA|NOPTR, $128

// VPERMB indices that gather each dword's [s2 s1 s0 0] as s0 s1 s2: 48
// output bytes (the last 16 are not stored).
DATA ·decGather+0x00(SB)/8, $0x090a040506000102
DATA ·decGather+0x08(SB)/8, $0x161011120c0d0e08
DATA ·decGather+0x10(SB)/8, $0x1c1d1e18191a1415
DATA ·decGather+0x18(SB)/8, $0x292a242526202122
DATA ·decGather+0x20(SB)/8, $0x363031322c2d2e28
DATA ·decGather+0x28(SB)/8, $0x3c3d3e38393a3435
DATA ·decGather+0x30(SB)/8, $0
DATA ·decGather+0x38(SB)/8, $0
GLOBL ·decGather(SB), RODATA|NOPTR, $64

// func encodeBlocks(dst, src []byte) int
//
// Per block: a masked 48-byte load, VPERMB spreads each 3-byte group over a
// dword, VPMULTISHIFTQB cuts the four sextets out of it (bit offsets 10, 4,
// 22, 16 within the dword; the top two bits of each byte are junk that
// VPERMB ignores) and VPERMB maps them through the alphabet.
TEXT ·encodeBlocks(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), AX
	XORQ DX, DX
	MOVQ $48, BX
	DIVQ BX
	SHRQ $6, CX
	CMPQ CX, AX
	CMOVQLT CX, AX           // blocks = min(len(src)/48, len(dst)/64)
	MOVQ AX, ret+48(FP)
	TESTQ AX, AX
	JZ   encDone
	VMOVDQU64 ·encSpread(SB), Z1
	MOVQ $0x3036242a1016040a, BX
	VPBROADCASTQ BX, Z2
	VMOVDQU64 ·encAlphabet(SB), Z3
	MOVQ $0x0000ffffffffffff, BX
	KMOVQ BX, K1

encLoop:
	VMOVDQU8.Z (SI), K1, Z0
	VPERMB Z0, Z1, Z0
	VPMULTISHIFTQB Z0, Z2, Z0
	VPERMB Z3, Z0, Z0
	VMOVDQU64 Z0, (DI)
	ADDQ $48, SI
	ADDQ $64, DI
	DECQ AX
	JNZ  encLoop
	VZEROUPPER

encDone:
	RET

// func decodeBlocks(dst, src []byte) int
//
// Per block: VPERMI2B looks each character's sextet up in the 128-byte
// table; OR-ing the characters back in sets bit 7 for any byte outside the
// alphabet, so one VPMOVB2M tests the block and a bad one ends the loop
// before anything is stored. VPMADDUBSW joins sextet pairs into 12-bit words
// and VPMADDWD word pairs into 24-bit dwords; VPERMB packs those into 48
// bytes, stored under a mask.
TEXT ·decodeBlocks(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), AX
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	XORQ DX, DX
	MOVQ $48, BX
	DIVQ BX
	SHRQ $6, CX
	CMPQ CX, AX
	CMOVQLT CX, AX           // limit = min(len(src)/64, len(dst)/48)
	XORQ R8, R8              // blocks decoded
	TESTQ AX, AX
	JZ   decDone
	VMOVDQU64 ·decSextet+0(SB), Z10
	VMOVDQU64 ·decSextet+64(SB), Z11
	MOVL $0x01400140, BX
	VPBROADCASTD BX, Z12
	MOVL $0x00011000, BX
	VPBROADCASTD BX, Z13
	VMOVDQU64 ·decGather(SB), Z14
	MOVQ $0x0000ffffffffffff, BX
	KMOVQ BX, K1

decLoop:
	VMOVDQU64 (SI), Z0
	VMOVDQA64 Z0, Z1
	VPERMI2B Z11, Z10, Z1
	VPORQ Z0, Z1, Z2
	VPMOVB2M Z2, K2
	KORTESTQ K2, K2
	JNZ  decStop
	VPMADDUBSW Z12, Z1, Z1
	VPMADDWD Z13, Z1, Z1
	VPERMB Z1, Z14, Z1
	VMOVDQU8 Z1, K1, (DI)
	ADDQ $64, SI
	ADDQ $48, DI
	INCQ R8
	CMPQ R8, AX
	JNE  decLoop

decStop:
	VZEROUPPER

decDone:
	MOVQ R8, ret+48(FP)
	RET

// func plainBlocks(b []byte) int
//
// Per block: a signed compare below 0x20 finds every byte < 0x20 or >= 0x80,
// an equality compare the backslash, and KORTESTQ tests both masks.
TEXT ·plainBlocks(SB), NOSPLIT, $0-32
	MOVQ b_base+0(FP), SI
	MOVQ b_len+8(FP), CX
	ANDQ $~63, CX
	XORQ AX, AX
	TESTQ CX, CX
	JZ   plainDone
	MOVL $0x20, BX
	VPBROADCASTB BX, Z1
	MOVL $0x5c, BX
	VPBROADCASTB BX, Z2

plainLoop:
	VMOVDQU64 (SI)(AX*1), Z0
	VPCMPB $1, Z1, Z0, K1
	VPCMPEQB Z2, Z0, K2
	KORTESTQ K1, K2
	JNZ  plainStop
	ADDQ $64, AX
	CMPQ AX, CX
	JNE  plainLoop

plainStop:
	VZEROUPPER

plainDone:
	MOVQ AX, ret+24(FP)
	RET
