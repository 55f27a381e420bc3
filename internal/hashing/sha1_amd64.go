//go:build amd64 && !purego

package hashing

import (
	"crypto/sha1"
	"encoding/binary"
)

// useSHANI reports whether blockSHANI may run: the SHA extensions plus the
// SSSE3 (PSHUFB) and SSE4.1 (PINSRD/PEXTRD) instructions the kernel uses.
// The kernel touches XMM registers only, which every amd64 OS saves, so
// no XGETBV check is needed. Tests flip it to reach the other path.
var useSHANI = detectSHANI()

func detectSHANI() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	const ssse3, sse41, sha = 1 << 9, 1 << 19, 1 << 29
	return ecx1&ssse3 != 0 && ecx1&sse41 != 0 && ebx7&sha != 0
}

// blockSHANI folds the whole 64-byte blocks of p into h. It reads
// p[:len(p)&^63] and nothing else. Callers check useSHANI first.
//
//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

// SHA1 returns the SHA-1 digest of data, bit-identical to
// crypto/sha1.Sum, which it is wherever the SHA-NI kernel cannot run.
func SHA1(data []byte) [20]byte {
	if !useSHANI {
		return sha1.Sum(data)
	}
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	whole := len(data) &^ 63
	blockSHANI(&h, data[:whole])

	// Padding: the tail, 0x80, zeros, then the bit length in the last
	// eight bytes of a block — a second block when fewer than nine bytes
	// are left in the first.
	var pad [128]byte
	n := copy(pad[:], data[whole:])
	pad[n] = 0x80
	end := 64
	if n >= 56 {
		end = 128
	}
	binary.BigEndian.PutUint64(pad[end-8:], uint64(len(data))<<3)
	blockSHANI(&h, pad[:end])

	var sum [20]byte
	for i, w := range h {
		binary.BigEndian.PutUint32(sum[4*i:], w)
	}
	return sum
}

// SHA1Impl names the implementation behind SHA1 on this machine, for the
// daemons' startup lines.
func SHA1Impl() string {
	if useSHANI {
		return "sha-ni"
	}
	return "crypto/sha1"
}
