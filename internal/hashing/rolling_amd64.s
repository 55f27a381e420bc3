// The rolling hash's boundary candidates, sixteen positions per step, on
// AVX2. Behind Rolling.Scan for k ≤ 16 bits (see scanWide).
//
// Mod 2^64 the low 16 bits of h_i = h_(i-1)·P + in_i − out_i·P^w depend
// only on the low 16 bits of the operands, so one YMM register of sixteen
// 16-bit lanes holds sixteen consecutive positions. Per step:
//
//   d   = in − out·P^w                  (lane j: position j of the step)
//   S_j = Σ_(t≤j) d_t·P^(j−t)           the weighted inclusive prefix of d
//   h_j = S_j + h·P^(j+1)               candidates: h_j & mask == 0
//   h  ← h_15                           the carry into the next step
//
// The prefix takes three shift/multiply/add passes with P, P^2 and P^4
// inside each 128-bit half (lanes 0-7 and 8-15), then adds S_7·P^(j−7)
// to the upper half. Only the carry is loop-carried; S is not. Loads
// touch in[j:j+16] and out[j:j+16] of the steps run, nothing else.

//go:build amd64 && !purego

#include "textflag.h"

#define UPPER Y6  // P^1 … P^8 in lanes 8-15, zero below
#define HB    Y7  // h in every lane: the carry
#define P4    Y10
#define P2    Y11
#define P1    Y12
#define POWS  Y13 // P^1 … P^16
#define MASK  Y14
#define POWW  Y15
#define ZERO  Y5

// S_j += P^s · S_(j−s) within each half, for s = 1, 2 or 4 (b = 2s bytes).
#define PREFIX(b, pw) \
	VPSLLDQ $b, Y0, Y1 \
	VPMULLW pw, Y1, Y1 \
	VPADDW  Y1, Y0, Y0

// func scanAVX2(in, out []byte, h, powW, mask uint16) (j int, cands uint32, hNext uint16)
TEXT ·scanAVX2(SB), NOSPLIT, $0-70
	MOVQ in_base+0(FP), SI
	MOVQ in_len+8(FP), CX
	MOVQ out_base+24(FP), DI
	ANDQ $~15, CX
	XORQ AX, AX
	XORL DX, DX

	MOVWLZX      h+48(FP), BX
	VMOVD        BX, X7
	VPBROADCASTW X7, HB
	MOVWLZX      powW+50(FP), BX
	VMOVD        BX, X15
	VPBROADCASTW X15, POWW
	MOVWLZX      mask+52(FP), BX
	VMOVD        BX, X14
	VPBROADCASTW X14, MASK
	VMOVDQU      ·scanPow+0(SB), UPPER
	VMOVDQU      ·scanPow+16(SB), POWS
	VPBROADCASTW ·scanPow+16(SB), P1
	VPBROADCASTW ·scanPow+18(SB), P2
	VPBROADCASTW ·scanPow+22(SB), P4
	VPXOR        ZERO, ZERO, ZERO
	CMPQ         AX, CX
	JEQ          done

loop:
	// d = in − out·P^w
	VPMOVZXBW (SI)(AX*1), Y0
	VPMOVZXBW (DI)(AX*1), Y1
	VPMULLW   POWW, Y1, Y1
	VPSUBW    Y1, Y0, Y0

	// S: the prefix within each half, then S_7·P^(j−7) into lanes 8-15.
	PREFIX(2, P1)
	PREFIX(4, P2)
	PREFIX(8, P4)
	VPSHUFHW $0xFF, Y0, Y1 // word 7 of each half into its words 4-7
	VPERMQ   $0x55, Y1, Y1 // S_7 in every lane
	VPMULLW  UPPER, Y1, Y1
	VPADDW   Y1, Y0, Y0

	// h_j = S_j + h·P^(j+1); the carry is h_15 in every lane.
	VPMULLW  POWS, HB, Y1
	VPADDW   Y1, Y0, Y0
	VPSHUFHW $0xFF, Y0, HB
	VPERMQ   $0xFF, HB, HB

	// Candidates: h_j & mask == 0.
	VPAND     MASK, Y0, Y0
	VPCMPEQW  ZERO, Y0, Y0
	VPMOVMSKB Y0, DX
	TESTL     DX, DX
	JNZ       done
	ADDQ      $16, AX
	CMPQ      AX, CX
	JNE       loop

done:
	MOVQ  AX, j+56(FP)
	MOVL  DX, cands+64(FP)
	VMOVD X7, BX
	MOVW  BX, hNext+68(FP)
	VZEROUPPER
	RET
