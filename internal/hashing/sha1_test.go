package hashing

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// crypto/sha1 is the reference in every test here: SHA1 must be the same
// function of the same bytes, whatever ran underneath.

func TestSHA1KnownAnswers(t *testing.T) {
	t.Logf("SHA1 implementation under test: %s", SHA1Impl())
	for _, c := range []struct {
		name, want string
		msg        []byte
	}{
		{"empty", "da39a3ee5e6b4b0d3255bfef95601890afd80709", nil},
		{"abc", "a9993e364706816aba3e25717850c26c9cd0d89d", []byte("abc")},
		{"448 bits", "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
			[]byte("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")},
		{"896 bits", "a49b2446a02c645bf419f995b67091253a04a259",
			[]byte("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")},
		{"one million a", "34aa973cd4c4daa4f61eeb2bdbad27316534016f", bytes.Repeat([]byte{'a'}, 1000000)},
	} {
		if got := SHA1(c.msg); hex.EncodeToString(got[:]) != c.want {
			t.Errorf("%s: SHA1 = %x, want %s", c.name, got, c.want)
		}
	}
}

func TestSHA1MatchesStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	buf := make([]byte, 2<<20+16)
	rng.Read(buf)
	check := func(off, n int) {
		t.Helper()
		p := buf[off : off+n]
		if got, want := SHA1(p), sha1.Sum(p); got != want {
			t.Fatalf("offset %d, length %d: SHA1 = %x, crypto/sha1 = %x", off, n, got, want)
		}
	}
	// The padding edge: a tail of 55 bytes pads within its block, 56 to 63
	// need a second one; 64 and 120 are the same edge one block on.
	for _, n := range []int{55, 56, 63, 64, 65, 119, 120, 127, 128} {
		check(0, n)
	}
	for align := 0; align < 16; align++ {
		for n := 0; n <= 320; n++ {
			check(align, n)
		}
	}
	for i := 0; i < 200; i++ {
		n := rng.Intn(2 << 20)
		if i%2 == 0 {
			n = rng.Intn(4096)
		}
		check(rng.Intn(16), n)
	}
}

func TestSHA1AllocatesNothing(t *testing.T) {
	data := make([]byte, 8<<10+57)
	var sink [20]byte
	if n := testing.AllocsPerRun(100, func() { sink = SHA1(data) }); n != 0 {
		t.Fatalf("SHA1 allocates %v times per call, want 0", n)
	}
	_ = sink
}

func FuzzSHA1(f *testing.F) {
	f.Add([]byte(nil), uint8(0))
	f.Add([]byte("abc"), uint8(1))
	f.Add(bytes.Repeat([]byte{0x80}, 56), uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 64+55), uint8(7))
	f.Add(bytes.Repeat([]byte("stdchk"), 100), uint8(15))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		if int(off) > len(data) {
			off = uint8(len(data))
		}
		p := data[off:]
		if got, want := SHA1(p), sha1.Sum(p); got != want {
			t.Fatalf("offset %d, length %d: SHA1 = %x, crypto/sha1 = %x", off, len(p), got, want)
		}
	})
}

// BenchmarkSHA1 times SHA1 (kernel) beside crypto/sha1.Sum (stdlib) at
// the chunk sizes the workloads use. Where the pair reads equal — no
// SHA-NI, or a toolchain whose crypto/sha1 has it — the kernel earns
// nothing; the second case is its deletion signal (sha1block_amd64.s).
func BenchmarkSHA1(b *testing.B) {
	impls := []struct {
		name string
		sum  func([]byte) [20]byte
	}{{"kernel", SHA1}, {"stdlib", sha1.Sum}}
	sizes := []struct {
		name string
		n    int
	}{{"8K", 8 << 10}, {"64K", 64 << 10}, {"1M", 1 << 20}}
	var sink [20]byte
	for _, impl := range impls {
		for _, size := range sizes {
			b.Run(fmt.Sprintf("%s/%s", impl.name, size.name), func(b *testing.B) {
				data := make([]byte, size.n)
				rand.New(rand.NewSource(1)).Read(data)
				b.SetBytes(int64(size.n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sink = impl.sum(data)
				}
			})
		}
	}
	_ = sink
}
