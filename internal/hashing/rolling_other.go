//go:build !amd64 || purego

package hashing

// detectAVX2 is false on this build: Rolling.Scan runs its scalar loop.
func detectAVX2() bool { return false }

// scanAVX2 is not built here; useAVX2 is never true, so it is never
// called.
func scanAVX2(in, out []byte, h, powW, mask uint16) (j int, cands uint32, hNext uint16) {
	panic("hashing: no AVX2 scan kernel in this build")
}
