package chunker

import (
	"bytes"
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	_ "unsafe" // for go:linkname

	"stdchk/internal/core"
	"stdchk/internal/hashing"
	"stdchk/internal/workload"
)

func streamTestParams() StreamParams {
	return StreamParams{Window: 48, Bits: 12, Min: 2 << 10, Max: 32 << 10}
}

// TestStreamSpansValid: spans from the streaming boundary finder are
// contiguous, cover the input exactly, and respect the Min/Max bounds
// (the final span may be short).
func TestStreamSpansValid(t *testing.T) {
	p := streamTestParams()
	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(1)).Read(data)
	spans := p.Split(data)
	if err := Validate(spans, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if len(spans) < 8 {
		t.Fatalf("only %d spans over 1 MB with expected ~6 KB spacing", len(spans))
	}
	for i, s := range spans {
		if s.Len > p.Max {
			t.Fatalf("span %d has length %d > max %d", i, s.Len, p.Max)
		}
		if i < len(spans)-1 && s.Len < p.Min {
			t.Fatalf("non-final span %d has length %d < min %d", i, s.Len, p.Min)
		}
	}
}

// TestStreamFeedGranularityInvariance: the boundary set must not depend on
// how the byte stream is sliced into Feed calls — the property that makes
// all three write protocols (different staging granularities) produce
// identical chunk sequences.
func TestStreamFeedGranularityInvariance(t *testing.T) {
	data := make([]byte, 512<<10)
	rand.New(rand.NewSource(2)).Read(data)
	for _, p := range []StreamParams{
		streamTestParams(),
		{Window: 64, Bits: 8, Min: 100, Max: 1000}, // Min > Window, cuts every few hundred bytes
	} {
		want := referenceSplit(p, data)
		w := p.Window
		for _, block := range []int{1, 7, w - 1, w, w + 1, 4096, 100_000, len(data)} {
			if got := feedInBlocks(p, data, block); !slices.Equal(got, want) {
				t.Fatalf("%s, block %d: %d spans, want %d; first difference at span %d",
					p.Name(), block, len(got), len(want), firstDiff(got, want))
			}
		}
	}
}

// feedInBlocks drives a Stream over data handed to Feed block bytes at a
// time, the way the writer does with application writes.
func feedInBlocks(p StreamParams, data []byte, block int) []Span {
	s := NewStream(p)
	var spans []Span
	var off, start int64
	for pos := 0; pos < len(data); pos += block {
		chunk := data[pos:min(pos+block, len(data))]
		for len(chunk) > 0 {
			n, cut := s.Feed(chunk)
			off += int64(n)
			chunk = chunk[n:]
			if cut {
				spans = append(spans, Span{Off: start, Len: off - start})
				start = off
			}
		}
	}
	if tail := s.Flush(); tail > 0 {
		spans = append(spans, Span{Off: start, Len: tail})
	}
	return spans
}

// referenceSplit is the definition of the live boundary set, one
// Rolling.Roll per byte: a span ends at Max bytes, or at the first byte
// from Min on whose window hash is non-zero with its low Bits bits zero.
func referenceSplit(p StreamParams, data []byte) []Span {
	p = p.WithDefaults()
	r := hashing.NewRolling(p.Window)
	var spans []Span
	var start int64
	for i, b := range data {
		h := r.Roll(b)
		length := int64(i) + 1 - start
		if length >= p.Max || (length >= p.Min && h != 0 && hashing.Boundary(h, p.Bits)) {
			spans = append(spans, Span{Off: start, Len: length})
			start += length
		}
	}
	if tail := int64(len(data)) - start; tail > 0 {
		spans = append(spans, Span{Off: start, Len: tail})
	}
	return spans
}

func firstDiff(a, b []Span) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// setScanKernel is hashing's test switch: it turns Rolling.Scan's AVX2
// kernel off, or back on where the CPU has it, and reports the previous
// setting. The kernel has no exported knob, so the tests here reach the
// switch by name.
//
//go:linkname setScanKernel stdchk/internal/hashing.setScanKernel
func setScanKernel(on bool) (was bool)

// FuzzStreamFeed: for any bytes, any valid parameters and any slicing of
// the stream into Feed calls, Stream produces referenceSplit's spans, on
// Rolling.Scan's AVX2 kernel (where the CPU has it) and its scalar loop.
func FuzzStreamFeed(f *testing.F) {
	zeros := make([]byte, 300)
	noise := make([]byte, 300)
	rand.New(rand.NewSource(4)).Read(noise)
	mixed := slices.Concat(noise[:100], zeros[:120], noise[100:])
	// data, window, bits, min, max-min, block
	f.Add(zeros, uint8(16), uint8(4), uint16(16), uint16(40), uint16(7))     // zero run: only Max cuts
	f.Add(mixed, uint8(48), uint8(3), uint16(10), uint16(500), uint16(64))   // zero run inside content, Min < Window
	f.Add(noise[:10], uint8(48), uint8(2), uint16(48), uint16(0), uint16(3)) // input shorter than Window
	f.Add(noise, uint8(8), uint8(2), uint16(20), uint16(30), uint16(20))     // feed edge on a Min-th byte
	f.Add(noise, uint8(8), uint8(20), uint16(8), uint16(92), uint16(64))     // Max reached mid-feed
	f.Add(noise, uint8(128), uint8(1), uint16(200), uint16(100), uint16(1))  // Min > Window, byte-at-a-time
	f.Fuzz(func(t *testing.T, data []byte, window, bits uint8, minLen, extra, block uint16) {
		p := StreamParams{
			Window: 1 + int(window)%128,
			Bits:   1 + uint(bits)%20,
			Min:    1 + int64(minLen)%512,
		}
		p.Max = p.Min + int64(extra)%4096
		want := referenceSplit(p, data)
		if err := Validate(want, int64(len(data))); err != nil {
			t.Fatalf("reference: %v", err)
		}
		defer setScanKernel(setScanKernel(true))
		for _, kernel := range []bool{true, false} {
			setScanKernel(kernel)
			for _, b := range []int{1 + int(block), len(data) + 1} {
				if got := feedInBlocks(p, data, b); !slices.Equal(got, want) {
					t.Fatalf("%+v, kernel %v, block %d: %d spans, want %d; first difference at span %d",
						p, kernel, b, len(got), len(want), firstDiff(got, want))
				}
			}
		}
	})
}

// TestStreamBoundariesPinned is the on-disk compatibility promise: the
// default live chunker cuts a given image where every earlier version of
// it did, so a checkpoint stored by an older client dedups fully against
// the same image written by a newer one. The constant was recorded from
// the per-byte Feed loop this package shipped through PR 17; it changes
// only with a deliberate format break.
func TestStreamBoundariesPinned(t *testing.T) {
	tr := workload.BLCR5Min(1, 2, 8<<20)
	const want = "6e073431a05495b15a6c552d9f4c5a29501210bf" // 140 + 135 spans
	got := spanDigest(StreamParams{}.Split(tr.Images[0]), StreamParams{}.Split(tr.Images[1]))
	if got != want {
		t.Fatalf("span digest %s, want %s: the live CbCH boundary function changed", got, want)
	}
}

// spanDigest is SHA-1 over every span's (Off, Len) as big-endian uint64s.
func spanDigest(lists ...[]Span) string {
	h := sha1.New()
	var b [16]byte
	for _, spans := range lists {
		for _, s := range spans {
			binary.BigEndian.PutUint64(b[:8], uint64(s.Off))
			binary.BigEndian.PutUint64(b[8:], uint64(s.Len))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestStreamResynchronizesAfterShift: inserting bytes near the front must
// leave the boundary set past the insertion point aligned with the
// original (modulo one resync chunk) — the property fixed-size chunking
// lacks and the reason CbCH dedups shifted checkpoint content.
func TestStreamResynchronizesAfterShift(t *testing.T) {
	p := streamTestParams()
	base := make([]byte, 512<<10)
	rand.New(rand.NewSource(3)).Read(base)

	shifted := make([]byte, 0, len(base)+13)
	shifted = append(shifted, base[:100]...)
	shifted = append(shifted, []byte("thirteen-byte")...)
	shifted = append(shifted, base[100:]...)

	hashSet := func(data []byte) map[core.ChunkID]int64 {
		out := make(map[core.ChunkID]int64)
		for _, c := range SplitAndHash(p, data) {
			out[c.ID] = c.Len
		}
		return out
	}
	prev := hashSet(base)
	var matched, total int64
	for id, n := range hashSet(shifted) {
		total += n
		if _, ok := prev[id]; ok {
			matched += n
		}
	}
	if ratio := float64(matched) / float64(total); ratio < 0.90 {
		t.Fatalf("only %.1f%% of shifted content re-matched; boundaries did not resynchronize", 100*ratio)
	}
}

// TestStreamPathologicalInput: constant bytes never produce a hash
// boundary — a window of one repeated non-zero byte has one fixed hash, and
// a window of zeros hashes to 0, which is not a boundary — so exactly Max
// forces the cuts.
func TestStreamPathologicalInput(t *testing.T) {
	const size = 1 << 20
	for _, p := range []StreamParams{{}, streamTestParams()} {
		p = p.WithDefaults()
		for _, b := range []byte{0x00, 0xFF} {
			spans := p.Split(bytes.Repeat([]byte{b}, size))
			if err := Validate(spans, size); err != nil {
				t.Fatal(err)
			}
			if want := int((size + p.Max - 1) / p.Max); len(spans) != want {
				t.Errorf("%s over 1 MB of %#02x: %d spans, want %d of Max bytes", p.Name(), b, len(spans), want)
			}
		}
	}
}

// TestStreamDefaults: zero params resolve to sane bounds.
func TestStreamDefaults(t *testing.T) {
	p := StreamParams{}.WithDefaults()
	if p.Window != 48 || p.Bits != 16 {
		t.Fatalf("defaults: %+v", p)
	}
	if p.Min <= 0 || p.Max < p.Min {
		t.Fatalf("degenerate bounds: %+v", p)
	}
	if s := NewStream(StreamParams{}); s.Params().Max != p.Max {
		t.Fatalf("NewStream defaults mismatch: %+v", s.Params())
	}
}

// TestStreamEmptyAndTiny: inputs below Window/Min still produce a single
// covering span (or none for empty input).
func TestStreamEmptyAndTiny(t *testing.T) {
	p := streamTestParams()
	if spans := p.Split(nil); len(spans) != 0 {
		t.Fatalf("empty input produced %d spans", len(spans))
	}
	tiny := []byte{1, 2, 3}
	spans := p.Split(tiny)
	if len(spans) != 1 || spans[0].Len != 3 {
		t.Fatalf("tiny input spans: %+v", spans)
	}
}

// BenchmarkStreamFeed is the live boundary finder alone, as the writer
// drives it: one 32 MB BLCR image through Feed in 1 MB application writes.
func BenchmarkStreamFeed(b *testing.B) {
	img := workload.BLCR5Min(1, 1, 32<<20).Images[0]
	s := NewStream(StreamParams{})
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spans := 0
		for pos := 0; pos < len(img); pos += 1 << 20 {
			for chunk := img[pos:min(pos+1<<20, len(img))]; len(chunk) > 0; {
				n, cut := s.Feed(chunk)
				chunk = chunk[n:]
				if cut {
					spans++
				}
			}
		}
		s.Flush()
		if spans < 100 {
			b.Fatalf("%d spans in a 32 MB image", spans)
		}
	}
}
