//go:build amd64 && !purego

package hashing

// detectAVX2 reports whether scanAVX2 may run: the CPU has AVX2, and the
// OS has enabled XSAVE (OSXSAVE) and saves the YMM registers' upper halves
// across context switches (XCR0 bits 1 and 2, read with XGETBV). Without
// the last an AVX2 instruction faults even on a CPU that has it.
func detectAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const osxsave, avx, avx2 = 1 << 27, 1 << 28, 1 << 5
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ebx7&avx2 == 0 {
		return false
	}
	const sseState, ymmState = 1 << 1, 1 << 2
	return xgetbv()&(sseState|ymmState) == sseState|ymmState
}

// scanPow holds eight zeros, then P^1 … P^16 mod 2^16: the
// window-independent multipliers of scanAVX2. The kernel loads P^1 … P^16
// from it for h·P^(j+1), the eight zeros and P^1 … P^8 as the multipliers
// that join the two halves of its prefix, and broadcasts P, P^2 and P^4.
var scanPow = func() (t [24]uint16) {
	p := uint16(1)
	for j := 8; j < len(t); j++ {
		p *= uint16(rollingPrime & 0xffff)
		t[j] = p
	}
	return t
}()

// scanAVX2 carries the low 16 bits of the rolling hash over whole
// 16-position steps of in (the incoming bytes) and out (the byte each one
// pushes out of the window; len(out) ≥ len(in)), from h, the low bits of
// the hash before in[0], with powW = P^window mod 2^16. It stops at the
// first step holding a candidate — a position whose low bits under mask
// are all zero — and returns j, the step's offset in in, cands, its
// VPMOVMSKB mask (position j+b owns bits 2b and 2b+1), and hNext, the
// low bits after the step. With no candidate it returns j = len(in)&^15,
// cands = 0 and hNext the low bits before in[j]. It reads in[:j+16] and
// out[:j+16] at most. Callers check useAVX2 first.
//
//go:noescape
func scanAVX2(in, out []byte, h, powW, mask uint16) (j int, cands uint32, hNext uint16)
