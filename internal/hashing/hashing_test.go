package hashing

import (
	"maps"
	"math/rand"
	"testing"
	"testing/quick"

	"stdchk/internal/workload"
)

func TestWindowHashDeterministic(t *testing.T) {
	a := WindowHash([]byte("abcdef"))
	b := WindowHash([]byte("abcdef"))
	if a != b {
		t.Fatal("WindowHash not deterministic")
	}
	if WindowHash([]byte("abcdeg")) == a {
		t.Fatal("single-byte change did not alter hash")
	}
}

func TestBoundaryMask(t *testing.T) {
	tests := []struct {
		h    uint64
		k    uint
		want bool
	}{
		{0, 14, true},
		{1 << 14, 14, true},
		{1, 14, false},
		{0x4000, 14, true},
		{0x3fff, 14, false},
		{0xffffffffffff0000, 16, true},
		{0xffffffffffff0001, 16, false},
		{7, 0, true}, // k=0: every position is a boundary
	}
	for _, tt := range tests {
		if got := Boundary(tt.h, tt.k); got != tt.want {
			t.Errorf("Boundary(%#x, %d) = %v, want %v", tt.h, tt.k, got, tt.want)
		}
	}
}

func TestBoundaryRate(t *testing.T) {
	// With random hashes, boundaries at k bits should appear at a rate of
	// about 2^-k. Check within a loose factor.
	const k = 8
	rng := rand.New(rand.NewSource(1))
	n := 1 << 16
	hits := 0
	for i := 0; i < n; i++ {
		if Boundary(rng.Uint64(), k) {
			hits++
		}
	}
	want := n >> k
	if hits < want/2 || hits > want*2 {
		t.Fatalf("boundary rate %d hits in %d, want around %d", hits, n, want)
	}
}

func TestRollingMatchesFull(t *testing.T) {
	const window = 16
	rng := rand.New(rand.NewSource(42))
	data := make([]byte, 1024)
	rng.Read(data)

	r := NewRolling(window)
	got := r.Prime(data[:window])
	if want := HashFull(data[:window]); got != want {
		t.Fatalf("Prime hash %#x, want %#x", got, want)
	}
	for i := window; i < len(data); i++ {
		got := r.Roll(data[i])
		want := HashFull(data[i-window+1 : i+1])
		if got != want {
			t.Fatalf("Roll at %d: %#x, want %#x", i, got, want)
		}
	}
}

func TestRollingMatchesFullQuick(t *testing.T) {
	f := func(data []byte, wseed uint8) bool {
		window := int(wseed%31) + 2
		if len(data) < window+2 {
			return true
		}
		r := NewRolling(window)
		r.Prime(data[:window])
		for i := window; i < len(data); i++ {
			if r.Roll(data[i]) != HashFull(data[i-window+1:i+1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// scanWindows are the window sizes the Scan tests run: below, at and
// above one kernel step of 16 positions, the default 48, and a window
// many steps long.
var scanWindows = []int{1, 8, 15, 16, 17, 48, 300}

// bothScanPaths runs f with Scan on the AVX2 kernel (where this CPU has
// it) and on the scalar loop. Where the kernel cannot run it runs f once
// and says so.
func bothScanPaths(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	was := setScanKernel(true)
	defer setScanKernel(was)
	if !useAVX2 {
		t.Log("no AVX2 kernel on this build or CPU: only the scalar loop runs")
		setScanKernel(false)
		f(t)
		return
	}
	t.Run("kernel", f)
	setScanKernel(false)
	t.Run("scalar", f)
}

// rollCuts returns, for data fed one Roll at a time to a fresh instance,
// each position i+1 whose window hash cuts at k bits: the definition
// Scan must meet.
func rollCuts(window int, k uint, data []byte) map[int]bool {
	r := NewRolling(window)
	mask := uint64(1)<<k - 1
	cuts := map[int]bool{}
	for i, b := range data {
		if h := r.Roll(b); h&mask == 0 && h != 0 {
			cuts[i+1] = true
		}
	}
	return cuts
}

// TestRollingScanMatchesRoll: Scan and Slide are Roll over a slice. One
// instance fed through a random mix of Scan, Slide and single Roll calls
// must hold the same hash after every call, and report the same boundary
// positions, as an instance fed the same bytes through Roll alone.
func TestRollingScanMatchesRoll(t *testing.T) {
	bothScanPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, window := range scanWindows {
			for k := uint(0); k <= 20; k++ {
				for range 3 {
					testScanMix(t, rng, window, k)
				}
			}
		}
	})
}

func testScanMix(t *testing.T, rng *rand.Rand, window int, k uint) {
	data := make([]byte, 1+rng.Intn(4*window+2000))
	rng.Read(data)
	// Zero runs longer than the window exercise the zero-hash rule.
	if z := rng.Intn(len(data)); rng.Intn(2) == 0 {
		clear(data[z:min(len(data), z+2*window+rng.Intn(64))])
	}
	refCuts := rollCuts(window, k, data)
	ref, got := NewRolling(window), NewRolling(window)
	for pos := 0; pos < len(data); {
		step := 1 + rng.Intn(min(len(data)-pos, 3*window+40))
		next := pos + step
		switch rng.Intn(4) {
		case 0:
			got.Roll(data[pos])
			next = pos + 1
		case 1:
			got.Slide(data[pos:next])
		default:
			n := got.Scan(data[pos:next], k)
			if n > 0 {
				next = pos + n
			}
			for i := pos + 1; i <= next; i++ {
				if refCuts[i] != (n > 0 && i == next) {
					t.Fatalf("window %d, k %d: Scan(data[%d:%d]) = %d, Roll boundary at %d is %v",
						window, k, pos, pos+step, n, i, refCuts[i])
				}
			}
		}
		for _, b := range data[pos:next] {
			ref.Roll(b)
		}
		if got.Sum() != ref.Sum() {
			t.Fatalf("window %d, k %d: hash after data[%d:%d] = %#x, want %#x", window, k, pos, next, got.Sum(), ref.Sum())
		}
		pos = next
	}
}

// scanAll drives Scan over data from a fresh instance, resuming after
// each cut wherever it fell, and returns the cuts and the final hash.
func scanAll(window int, k uint, data []byte) (map[int]bool, uint64) {
	r := NewRolling(window)
	cuts := map[int]bool{}
	for pos := 0; pos < len(data); {
		n := r.Scan(data[pos:], k)
		if n == 0 {
			break
		}
		pos += n
		cuts[pos] = true
	}
	return cuts, r.Sum()
}

// TestRollingScanStepEdges: whole Scans whose kernel part ends short of,
// on and past a 16-position step (lengths w … w+64), Scans resumed at
// every offset within a step after a cut, all-zero windows ending inside
// a step — their low bits are zero like a candidate's, but their hash is
// 0, which never cuts — and k either side of the kernel's 16 bits.
func TestRollingScanStepEdges(t *testing.T) {
	bothScanPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		for _, window := range scanWindows {
			data := make([]byte, window+64)
			rng.Read(data)
			for _, k := range []uint{0, 1, 4, 8, 16, 17} {
				for n := window; n <= len(data); n++ {
					want := rollCuts(window, k, data[:n])
					got, sum := scanAll(window, k, data[:n])
					if !maps.Equal(got, want) {
						t.Fatalf("window %d, k %d, %d bytes: cuts %v, want %v", window, k, n, got, want)
					}
					if full := HashFull(data[n-window : n]); sum != full {
						t.Fatalf("window %d, k %d, %d bytes: hash %#x, want %#x", window, k, n, sum, full)
					}
				}
			}

			// Zero runs of w to w+40 bytes, starting at every offset of a
			// step: at k 16 each window inside the run is a candidate.
			for run := window; run <= window+40; run += 8 {
				for at := 0; at < 48; at++ {
					data := make([]byte, 2*window+at+run+80)
					rng.Read(data)
					clear(data[window+at : window+at+run])
					for _, k := range []uint{2, 16} {
						want := rollCuts(window, k, data)
						if got, sum := scanAll(window, k, data); !maps.Equal(got, want) || sum != HashFull(data[len(data)-window:]) {
							t.Fatalf("window %d, k %d, zero run [%d:%d] of %d bytes: cuts %v, want %v",
								window, k, window+at, window+at+run, len(data), got, want)
						}
					}
				}
			}
		}
		// Around the kernel's 16-bit limit, over enough bytes for cuts at
		// k 16 that do not cut at 17 and 18.
		big := make([]byte, 1<<20)
		rng.Read(big)
		for k := uint(15); k <= 18; k++ {
			want := rollCuts(48, k, big)
			if got, _ := scanAll(48, k, big); !maps.Equal(got, want) {
				t.Fatalf("k %d over 1 MB: %d cuts, want %d", k, len(got), len(want))
			}
		}

		// A zero run reaching the end of the slice: no cut, hash 0.
		data := make([]byte, 4096)
		rng.Read(data[:1000])
		r := NewRolling(48)
		r.Slide(data[:1000])
		if n := r.Scan(data[1000:], 16); n != 0 || r.Sum() != 0 {
			t.Fatalf("Scan over 3096 zero bytes = %d with hash %#x, want 0 and 0", n, r.Sum())
		}
	})
}

func TestRollingScanAllocatesNothing(t *testing.T) {
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(7)).Read(data)
	r := NewRolling(48)
	allocs := testing.AllocsPerRun(10, func() {
		for rest := data; len(rest) > 0; {
			n := r.Scan(rest, 10)
			if n == 0 {
				break
			}
			rest = rest[n:]
		}
		r.Slide(data[:100])
	})
	if allocs != 0 {
		t.Fatalf("Scan/Slide allocate %.0f times per pass, want 0", allocs)
	}
}

func TestRollingReset(t *testing.T) {
	r := NewRolling(8)
	data := []byte("abcdefghijklmnop")
	first := r.Prime(data[:8])
	r.Roll(data[8])
	r.Reset()
	second := r.Prime(data[:8])
	if first != second {
		t.Fatalf("hash after Reset+Prime %#x, want %#x", second, first)
	}
	if r.Sum() != second {
		t.Fatal("Sum disagrees with Prime result")
	}
}

func TestNewRollingClampsWindow(t *testing.T) {
	r := NewRolling(0)
	if r.Window() != 1 {
		t.Fatalf("window = %d, want clamp to 1", r.Window())
	}
	r = NewRolling(-5)
	if r.Window() != 1 {
		t.Fatalf("window = %d, want clamp to 1", r.Window())
	}
}

func TestPrimeShortData(t *testing.T) {
	r := NewRolling(16)
	// Priming with fewer bytes than the window must not panic.
	_ = r.Prime([]byte("abc"))
}

func BenchmarkWindowHash64(b *testing.B) {
	data := make([]byte, 64)
	rand.New(rand.NewSource(7)).Read(data)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		_ = WindowHash(data)
	}
}

func BenchmarkRollingRoll(b *testing.B) {
	data := make([]byte, 1<<16)
	rand.New(rand.NewSource(7)).Read(data)
	r := NewRolling(48)
	r.Prime(data[:48])
	b.SetBytes(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Roll(data[i&(1<<16-1)])
	}
}

// BenchmarkRollingScan is the boundary scan alone at the live chunker's
// defaults (48-byte window, k 16) over one 32 MB BLCR image in 1 MB feeds,
// on the AVX2 kernel and on the scalar loop. Without AVX2 both read the
// scalar loop.
func BenchmarkRollingScan(b *testing.B) {
	img := workload.BLCR5Min(1, 1, 32<<20).Images[0]
	for _, kernel := range []bool{true, false} {
		name := map[bool]string{true: "kernel", false: "scalar"}[kernel]
		b.Run(name, func(b *testing.B) {
			defer setScanKernel(setScanKernel(kernel))
			r := NewRolling(48)
			b.SetBytes(int64(len(img)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cuts := 0
				for pos := 0; pos < len(img); pos += 1 << 20 {
					for feed := img[pos:min(pos+1<<20, len(img))]; len(feed) > 0; cuts++ {
						n := r.Scan(feed, 16)
						if n == 0 {
							break
						}
						feed = feed[n:]
					}
				}
				if cuts < 100 {
					b.Fatalf("%d cuts in a 32 MB image", cuts)
				}
			}
		})
	}
}

func TestPowMod64MatchesNaive(t *testing.T) {
	for _, window := range []int{1, 2, 3, 16, 48, 100, 1024} {
		naive := uint64(1)
		for i := 0; i < window-1; i++ {
			naive *= rollingPrime
		}
		if got := powMod64(rollingPrime, uint64(window-1)); got != naive {
			t.Fatalf("powMod64(window=%d) = %d, want %d", window, got, naive)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	r := NewRolling(8)
	data := []byte("abcdefghijklmnop")
	first := r.Prime(data)
	for _, b := range data[8:] {
		r.Roll(b)
	}
	r.Reset()
	if r.Sum() != 0 {
		t.Fatalf("Sum after Reset = %d", r.Sum())
	}
	if got := r.Prime(data); got != first {
		t.Fatalf("Prime after Reset = %d, want %d", got, first)
	}
}

func BenchmarkNewRolling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = NewRolling(4096)
	}
}
