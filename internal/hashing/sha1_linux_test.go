//go:build linux

package hashing

import (
	"crypto/sha1"
	"syscall"
	"testing"
)

// TestSHA1ReadsOnlyItsInput hashes slices that end on the last byte before
// an inaccessible page: a kernel load that runs past its input faults.
func TestSHA1ReadsOnlyItsInput(t *testing.T) {
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	for i := range mem[:page] {
		mem[i] = byte(i * 7)
	}
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	for n := 0; n <= 320; n++ {
		p := mem[page-n : page]
		if got, want := SHA1(p), sha1.Sum(p); got != want {
			t.Fatalf("length %d ending on the page boundary: SHA1 = %x, crypto/sha1 = %x", n, got, want)
		}
	}
	if got, want := SHA1(mem[:page]), sha1.Sum(mem[:page]); got != want {
		t.Fatalf("whole page: SHA1 = %x, crypto/sha1 = %x", got, want)
	}
}
