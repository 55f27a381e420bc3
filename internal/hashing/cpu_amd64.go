//go:build amd64 && !purego

package hashing

// The CPU feature probes behind both kernels' selectors (useSHANI,
// useAVX2), kept apart from either kernel so each can be deleted alone.

// cpuid executes CPUID with EAX=leaf, ECX=subleaf.
func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of extended control register 0: the
// register states the OS saves across context switches. Only valid when
// CPUID reports OSXSAVE.
func xgetbv() (xcr0 uint32)
