//go:build amd64 && !purego

package hashing

import (
	"math/rand"
	"testing"
)

func TestScanPowMatchesPowMod64(t *testing.T) {
	for j, got := range scanPow {
		want := uint16(0)
		if j >= 8 {
			want = uint16(powMod64(rollingPrime, uint64(j-7)))
		}
		if got != want {
			t.Fatalf("scanPow[%d] = %#x, want %#x", j, got, want)
		}
	}
}

// TestScanAVX2Contract checks the kernel's own results against the low 16
// bits of the scalar recurrence, step by step: where it stops, the
// candidate mask of that step, and the carry after it.
func TestScanAVX2Contract(t *testing.T) {
	if !useAVX2 {
		t.Skip("no AVX2 on this CPU")
	}
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 300; round++ {
		window := scanWindows[rng.Intn(len(scanWindows))]
		p := make([]byte, window+rng.Intn(200))
		rng.Read(p)
		in, out := p[window:], p[:len(p)-window]
		h, powW := uint16(rng.Uint32()), uint16(powMod64(rollingPrime, uint64(window)))
		mask := uint16(1)<<rng.Intn(17) - 1

		// Reference: the low bits after every position, and the first
		// whole step holding a candidate.
		after := make([]uint16, len(in))
		x := h
		for i := range in {
			x = x*uint16(rollingPrime&0xffff) + uint16(in[i]) - uint16(out[i])*powW
			after[i] = x
		}
		wantJ, wantCands := len(in)&^15, uint32(0)
		for s := 0; s+16 <= len(in) && wantCands == 0; s += 16 {
			for b := range 16 {
				if after[s+b]&mask == 0 {
					wantJ, wantCands = s, wantCands|3<<(2*b)
				}
			}
		}
		carried := wantJ // positions the carry has passed
		if wantCands != 0 {
			carried += 16
		}
		wantNext := h
		if carried > 0 {
			wantNext = after[carried-1]
		}

		j, cands, next := scanAVX2(in, out, h, powW, mask)
		if j != wantJ || cands != wantCands || next != wantNext {
			t.Fatalf("round %d (window %d, %d positions, mask %#x): scanAVX2 = (%d, %#x, %#x), want (%d, %#x, %#x)",
				round, window, len(in), mask, j, cands, next, wantJ, wantCands, wantNext)
		}
	}
}
