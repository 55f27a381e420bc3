//go:build linux

package hashing

import (
	"crypto/sha1"
	"maps"
	"syscall"
	"testing"
)

// guardedPage returns one page of memory, filled with a pattern, between
// two inaccessible pages: a kernel load outside it faults.
func guardedPage(t *testing.T) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 3*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	data := mem[page : 2*page]
	for i := range data {
		data[i] = byte(i * 7)
	}
	if err := syscall.Mprotect(mem[:page], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	if err := syscall.Mprotect(mem[2*page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	return data
}

// TestSHA1ReadsOnlyItsInput hashes slices that end on the last byte before
// an inaccessible page: a kernel load that runs past its input faults.
func TestSHA1ReadsOnlyItsInput(t *testing.T) {
	data := guardedPage(t)
	for n := 0; n <= 320; n++ {
		p := data[len(data)-n:]
		if got, want := SHA1(p), sha1.Sum(p); got != want {
			t.Fatalf("length %d ending on the page boundary: SHA1 = %x, crypto/sha1 = %x", n, got, want)
		}
	}
	if got, want := SHA1(data), sha1.Sum(data); got != want {
		t.Fatalf("whole page: SHA1 = %x, crypto/sha1 = %x", got, want)
	}
}

// TestRollingScanReadsOnlyItsInput scans slices that start on the first
// byte after an inaccessible page or end on the last byte before one, at
// every length across a few kernel steps, at k 0 (a cut at the first
// non-zero window) and 16 (no cut in so few bytes).
func TestRollingScanReadsOnlyItsInput(t *testing.T) {
	data := guardedPage(t)
	bothScanPaths(t, func(t *testing.T) {
		for _, window := range scanWindows {
			for n := 0; n <= window+80 && n <= len(data); n++ {
				for _, p := range [][]byte{data[:n], data[len(data)-n:]} {
					for _, k := range []uint{0, 16} {
						if got, _ := scanAll(window, k, p); !maps.Equal(got, rollCuts(window, k, p)) {
							t.Fatalf("window %d, k %d, %d bytes at a guard page: cuts %v, want %v", window, k, n, got, rollCuts(window, k, p))
						}
					}
				}
			}
		}
	})
}
