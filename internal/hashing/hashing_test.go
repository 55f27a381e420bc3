package hashing

import (
	"math/rand"
	"testing"
	"testing/quick"
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

// TestRollingScanMatchesRoll: Scan and Slide are Roll over a slice. One
// instance fed through a random mix of Scan, Slide and single Roll calls
// must hold the same hash after every call, and report the same boundary
// positions, as an instance fed the same bytes through Roll alone.
func TestRollingScanMatchesRoll(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 200; round++ {
		window := 1 + rng.Intn(300)
		k := uint(rng.Intn(12))
		data := make([]byte, 1+rng.Intn(4*window+2000))
		rng.Read(data)
		// Zero runs longer than the window exercise the zero-hash rule.
		if z := rng.Intn(len(data)); rng.Intn(2) == 0 {
			clear(data[z:min(len(data), z+2*window)])
		}
		mask := uint64(1)<<k - 1

		ref, got := NewRolling(window), NewRolling(window)
		refCuts := map[int]bool{}
		for i, b := range data {
			if h := ref.Roll(b); h&mask == 0 && h != 0 {
				refCuts[i+1] = true
			}
		}
		ref.Reset()
		for pos := 0; pos < len(data); {
			step := 1 + rng.Intn(min(len(data)-pos, 3*window))
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
						t.Fatalf("round %d (window %d, k %d): Scan(data[%d:%d]) = %d, Roll boundary at %d is %v",
							round, window, k, pos, pos+step, n, i, refCuts[i])
					}
				}
			}
			for _, b := range data[pos:next] {
				ref.Roll(b)
			}
			if got.Sum() != ref.Sum() {
				t.Fatalf("round %d (window %d): hash after data[%d:%d] = %#x, want %#x", round, window, pos, next, got.Sum(), ref.Sum())
			}
			pos = next
		}
	}
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
