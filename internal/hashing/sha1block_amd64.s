// SHA-1 block function on the x86 SHA extensions (SHA-NI): a bounded fork
// of crypto/sha1's block function for amd64, whose go1.24 assembly is
// AVX2 at best and about half this speed on a CPU that has the extensions.
//
// DELETE this file, sha1_amd64.go and the kernel half of BenchmarkSHA1
// when the pinned toolchain's crypto/sha1 uses SHA-NI on amd64 (the go1.25
// release notes announce it) and BenchmarkSHA1 shows kernel ≈ stdlib;
// hashing.SHA1 then becomes crypto/sha1.Sum on every platform.
//
// The schedule is the standard one (Intel's reference, the Linux kernel's
// sha1_ni_asm.S): SHA1RNDS4 does four rounds, SHA1NEXTE folds the rotated
// A of four rounds ago into the next message quad, and the two E registers
// ping-pong; SHA1MSG1/PXOR/SHA1MSG2 build each message quad from the
// previous four. Loads are unaligned and touch exactly p[:len(p)&^63].

//go:build amd64 && !purego

#include "textflag.h"

#define ABCD X0
#define E0   X1
#define E1   X2
#define MSG0 X3
#define MSG1 X4
#define MSG2 X5
#define MSG3 X6
#define FLIP X7 // big-endian word loads: PSHUFB mask reversing all 16 bytes
#define ABCD_SAVE X8
#define E_SAVE    X9

// Four rounds with round function/constant k, consuming message quad m.
// ea holds the E input, eb receives the state that becomes the next E.
#define ROUNDS4(k, m, ea, eb) \
	SHA1NEXTE m, ea       \
	MOVO      ABCD, eb    \
	SHA1RNDS4 $k, ea, ABCD

// Message schedule step for the quad m0 just consumed (m1..m3 follow it
// cyclically): finish m1, start m3's replacement, fold into m2.
#define SCHEDULE(m0, m1, m2, m3) \
	SHA1MSG2 m0, m1 \
	SHA1MSG1 m0, m3 \
	PXOR     m0, m2

DATA flipMask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipMask<>+8(SB)/8, $0x0001020304050607
GLOBL flipMask<>(SB), RODATA|NOPTR, $16

// func blockSHANI(h *[5]uint32, p []byte)
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	ANDQ $~63, DX
	JZ   done
	ADDQ SI, DX // end of the last whole block

	// ABCD holds a,b,c,d from the high lane down; E0 holds e in its top lane.
	MOVOU  (DI), ABCD
	PSHUFD $0x1B, ABCD, ABCD
	PXOR   E0, E0
	PINSRD $3, 16(DI), E0
	MOVOU  flipMask<>(SB), FLIP

loop:
	MOVO ABCD, ABCD_SAVE
	MOVO E0, E_SAVE

	// Rounds 0-15: the sixteen message words as loaded.
	MOVOU     (SI), MSG0
	PSHUFB    FLIP, MSG0
	PADDL     MSG0, E0
	MOVO      ABCD, E1
	SHA1RNDS4 $0, E0, ABCD

	MOVOU    16(SI), MSG1
	PSHUFB   FLIP, MSG1
	ROUNDS4(0, MSG1, E1, E0)
	SHA1MSG1 MSG1, MSG0

	MOVOU    32(SI), MSG2
	PSHUFB   FLIP, MSG2
	ROUNDS4(0, MSG2, E0, E1)
	SHA1MSG1 MSG2, MSG1
	PXOR     MSG2, MSG0

	MOVOU  48(SI), MSG3
	PSHUFB FLIP, MSG3
	ROUNDS4(0, MSG3, E1, E0)
	SCHEDULE(MSG3, MSG0, MSG1, MSG2)

	// Rounds 16-67.
	ROUNDS4(0, MSG0, E0, E1)
	SCHEDULE(MSG0, MSG1, MSG2, MSG3)
	ROUNDS4(1, MSG1, E1, E0)
	SCHEDULE(MSG1, MSG2, MSG3, MSG0)
	ROUNDS4(1, MSG2, E0, E1)
	SCHEDULE(MSG2, MSG3, MSG0, MSG1)
	ROUNDS4(1, MSG3, E1, E0)
	SCHEDULE(MSG3, MSG0, MSG1, MSG2)
	ROUNDS4(1, MSG0, E0, E1)
	SCHEDULE(MSG0, MSG1, MSG2, MSG3)
	ROUNDS4(1, MSG1, E1, E0)
	SCHEDULE(MSG1, MSG2, MSG3, MSG0)
	ROUNDS4(2, MSG2, E0, E1)
	SCHEDULE(MSG2, MSG3, MSG0, MSG1)
	ROUNDS4(2, MSG3, E1, E0)
	SCHEDULE(MSG3, MSG0, MSG1, MSG2)
	ROUNDS4(2, MSG0, E0, E1)
	SCHEDULE(MSG0, MSG1, MSG2, MSG3)
	ROUNDS4(2, MSG1, E1, E0)
	SCHEDULE(MSG1, MSG2, MSG3, MSG0)
	ROUNDS4(2, MSG2, E0, E1)
	SCHEDULE(MSG2, MSG3, MSG0, MSG1)
	ROUNDS4(3, MSG3, E1, E0)
	SCHEDULE(MSG3, MSG0, MSG1, MSG2)
	ROUNDS4(3, MSG0, E0, E1)
	SCHEDULE(MSG0, MSG1, MSG2, MSG3)

	// Rounds 68-79: the schedule runs out.
	ROUNDS4(3, MSG1, E1, E0)
	SHA1MSG2 MSG1, MSG2
	PXOR     MSG1, MSG3
	ROUNDS4(3, MSG2, E0, E1)
	SHA1MSG2 MSG2, MSG3
	ROUNDS4(3, MSG3, E1, E0)

	SHA1NEXTE E_SAVE, E0
	PADDL     ABCD_SAVE, ABCD

	ADDQ $64, SI
	CMPQ SI, DX
	JNE  loop

	PSHUFD $0x1B, ABCD, ABCD
	MOVOU  ABCD, (DI)
	PEXTRD $3, E0, 16(DI)

done:
	RET

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
