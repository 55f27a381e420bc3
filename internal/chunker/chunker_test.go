package chunker

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func randBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func reassemble(data []byte, spans []Span) []byte {
	out := make([]byte, 0, len(data))
	for _, s := range spans {
		out = append(out, data[s.Off:s.Off+s.Len]...)
	}
	return out
}

func chunkersUnderTest() []Chunker {
	return []Chunker{
		Fixed{Size: 1 << 10},
		Fixed{Size: 256 << 10},
		Fixed{Size: 1 << 20},
		ContentDefined{Window: 20, Bits: 8, Advance: 20},
		ContentDefined{Window: 32, Bits: 10, Advance: 32},
		ContentDefined{Window: 48, Bits: 6, Advance: 1},
		ContentDefined{Window: 48, Bits: 6, Advance: 1, Rolling: true},
		ContentDefined{Window: 64, Bits: 12, Advance: 64, MaxLen: 1 << 16},
	}
}

func TestSplitCoversInput(t *testing.T) {
	data := randBytes(1, 1<<18)
	for _, c := range chunkersUnderTest() {
		t.Run(c.Name(), func(t *testing.T) {
			spans := c.Split(data)
			if err := Validate(spans, int64(len(data))); err != nil {
				t.Fatalf("invalid spans: %v", err)
			}
			if !bytes.Equal(reassemble(data, spans), data) {
				t.Fatal("reassembled image differs from input")
			}
		})
	}
}

func TestSplitCoversInputQuick(t *testing.T) {
	chunkers := chunkersUnderTest()
	f := func(data []byte, pick uint8) bool {
		c := chunkers[int(pick)%len(chunkers)]
		spans := c.Split(data)
		if err := Validate(spans, int64(len(data))); err != nil {
			return false
		}
		return bytes.Equal(reassemble(data, spans), data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitDeterministic(t *testing.T) {
	data := randBytes(2, 1<<17)
	for _, c := range chunkersUnderTest() {
		a := c.Split(data)
		b := c.Split(data)
		if len(a) != len(b) {
			t.Fatalf("%s: nondeterministic span count %d vs %d", c.Name(), len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: span %d differs across runs", c.Name(), i)
			}
		}
	}
}

func TestSplitEmpty(t *testing.T) {
	for _, c := range chunkersUnderTest() {
		if spans := c.Split(nil); len(spans) != 0 {
			t.Errorf("%s: empty input produced %d spans", c.Name(), len(spans))
		}
	}
}

func TestFixedSizes(t *testing.T) {
	data := randBytes(3, 10<<10) // 10 KB
	spans := Fixed{Size: 4 << 10}.Split(data)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Len != 4<<10 || spans[1].Len != 4<<10 || spans[2].Len != 2<<10 {
		t.Fatalf("span sizes %d,%d,%d", spans[0].Len, spans[1].Len, spans[2].Len)
	}
}

func TestFixedDefaultsChunkSize(t *testing.T) {
	data := randBytes(4, 3<<20)
	spans := Fixed{}.Split(data)
	if len(spans) != 3 {
		t.Fatalf("default chunk size: got %d spans, want 3 (1MB default)", len(spans))
	}
}

// FsCH must detect no similarity after a one-byte insertion at the front,
// while CbCH must still detect most of it (paper §IV.C).
func TestInsertionResilience(t *testing.T) {
	base := randBytes(5, 1<<20)
	shifted := append([]byte{0x42}, base...)

	fsch := Fixed{Size: 4 << 10}
	simF := Similarity(SplitAndHash(fsch, base), SplitAndHash(fsch, shifted))
	if simF > 0.05 {
		t.Fatalf("FsCH similarity after shift = %.2f, want ~0", simF)
	}

	// Overlap CbCH (window advanced by one byte) is content-anchored:
	// boundaries depend only on the preceding m bytes, so a shift moves
	// all boundaries with the content and chunks still match.
	cbch := ContentDefined{Window: 32, Bits: 10, Advance: 1, Rolling: true}
	simC := Similarity(SplitAndHash(cbch, base), SplitAndHash(cbch, shifted))
	if simC < 0.80 {
		t.Fatalf("overlap CbCH similarity after shift = %.2f, want > 0.80", simC)
	}

	// No-overlap CbCH samples windows on a grid anchored at the previous
	// boundary; a one-byte shift desynchronizes the grid and similarity
	// collapses, like FsCH. (This is the inherent price of the cheaper
	// configuration; see EXPERIMENTS.md notes on Table 3.)
	noOverlap := ContentDefined{Window: 32, Bits: 10, Advance: 32}
	simN := Similarity(SplitAndHash(noOverlap, base), SplitAndHash(noOverlap, shifted))
	if simN > 0.20 {
		t.Fatalf("no-overlap CbCH similarity after shift = %.2f, want near 0", simN)
	}
}

func TestIdenticalImagesFullSimilarity(t *testing.T) {
	data := randBytes(6, 1<<19)
	for _, c := range chunkersUnderTest() {
		chunks := SplitAndHash(c, data)
		if sim := Similarity(chunks, chunks); sim != 1.0 {
			t.Errorf("%s: self-similarity = %.3f, want 1.0", c.Name(), sim)
		}
	}
}

func TestDisjointImagesZeroSimilarity(t *testing.T) {
	a := randBytes(7, 1<<19)
	b := randBytes(8, 1<<19)
	for _, c := range chunkersUnderTest() {
		sim := Similarity(SplitAndHash(c, a), SplitAndHash(c, b))
		if sim > 0.01 {
			t.Errorf("%s: random-image similarity = %.3f, want ~0", c.Name(), sim)
		}
	}
}

func TestSimilarityEmptyNext(t *testing.T) {
	if got := Similarity(nil, nil); got != 0 {
		t.Fatalf("Similarity(nil,nil) = %v, want 0", got)
	}
}

func TestCbCHExpectedChunkSpacing(t *testing.T) {
	// With advance p and k boundary bits, expected chunk size is about
	// p * 2^k. Allow a generous factor since the image is finite.
	data := randBytes(9, 4<<20)
	c := ContentDefined{Window: 32, Bits: 8, Advance: 32}
	spans := c.Split(data)
	want := float64(32 * 256)
	got := float64(len(data)) / float64(len(spans))
	if got < want/4 || got > want*4 {
		t.Fatalf("mean chunk %.0f bytes, want around %.0f", got, want)
	}
}

func TestCbCHMaxLenCap(t *testing.T) {
	// All-zero content never produces boundaries (hash of constant window
	// is constant); MaxLen must still bound chunk size.
	data := make([]byte, 1<<20)
	c := ContentDefined{Window: 48, Bits: 16, Advance: 48, MaxLen: 64 << 10}
	spans := c.Split(data)
	for i, s := range spans {
		if s.Len > 64<<10+48 {
			t.Fatalf("span %d length %d exceeds cap", i, s.Len)
		}
	}
	if err := Validate(spans, int64(len(data))); err != nil {
		t.Fatal(err)
	}
}

func TestRollingAndScanSameSpacingClass(t *testing.T) {
	// Rolling CbCH uses a different hash so boundaries differ, but the
	// statistical chunk-size class must match the scan version.
	data := randBytes(10, 4<<20)
	scan := ContentDefined{Window: 48, Bits: 10, Advance: 1}
	roll := ContentDefined{Window: 48, Bits: 10, Advance: 1, Rolling: true}
	ns, nr := len(scan.Split(data)), len(roll.Split(data))
	if ns == 0 || nr == 0 {
		t.Fatal("no spans")
	}
	ratio := float64(ns) / float64(nr)
	if ratio < 0.25 || ratio > 4 {
		t.Fatalf("scan %d spans vs rolling %d spans: outside same spacing class", ns, nr)
	}
}

// TestRollingSplitPinned: the Table 3 "rolling" ablation cuts a fixed image
// exactly where its own Prime/Roll loop did before it moved onto
// hashing.Rolling.Scan (digests recorded from that loop), so the
// ablation's similarity numbers cannot have drifted. The input has no
// all-zero window, which the shared scan deliberately never cuts at.
func TestRollingSplitPinned(t *testing.T) {
	data := randBytes(7, 2<<20)
	for _, tt := range []struct {
		c    ContentDefined
		want string
	}{
		{ContentDefined{Window: 20, Bits: 10, Advance: 1, Rolling: true}, "acf488d5d1ce6c54f53ef0a6e8be9378fdce0e5d"},               // 2,068 spans
		{ContentDefined{Window: 20, Bits: 14, Advance: 1, Rolling: true, MaxLen: 4096}, "4ac52e19da8405c338699da6d2cf5aa87af54d4a"}, // 582, most at MaxLen
		{ContentDefined{Window: 48, Bits: 12, Advance: 1, Rolling: true, MaxLen: 16}, "82760bd0eb0003f88d628a1d1c9e2c5f20d7e2ee"},   // MaxLen < Window
	} {
		spans := tt.c.Split(data)
		if err := Validate(spans, int64(len(data))); err != nil {
			t.Fatalf("%s: %v", tt.c.Name(), err)
		}
		if got := spanDigest(spans); got != tt.want {
			t.Errorf("%s (MaxLen %d): span digest %s over %d spans, want %s", tt.c.Name(), tt.c.MaxLen, got, len(spans), tt.want)
		}
	}
}

func TestEvalTraceCountsAndThroughput(t *testing.T) {
	imgs := [][]byte{randBytes(11, 1<<16), randBytes(11, 1<<16), randBytes(12, 1<<16)}
	stats := EvalTrace(Fixed{Size: 4 << 10}, imgs)
	if stats.Images != 3 {
		t.Fatalf("Images = %d, want 3", stats.Images)
	}
	// Image 2 identical to image 1 -> fully matched; image 3 disjoint.
	if got := stats.SimilarityRatio(); got < 0.45 || got > 0.55 {
		t.Fatalf("SimilarityRatio = %.3f, want ~0.5", got)
	}
	if stats.ThroughputMBps() <= 0 {
		t.Fatal("throughput not measured")
	}
	if stats.AvgChunk <= 0 || stats.AvgMinChunk <= 0 || stats.AvgMaxChunk < stats.AvgChunk {
		t.Fatalf("chunk stats inconsistent: avg %.0f min %.0f max %.0f",
			stats.AvgChunk, stats.AvgMinChunk, stats.AvgMaxChunk)
	}
}

func TestDedupBytes(t *testing.T) {
	img := randBytes(13, 1<<18)
	unique, total := DedupBytes(Fixed{Size: 4 << 10}, [][]byte{img, img, img})
	if total != 3<<18 {
		t.Fatalf("total = %d, want %d", total, 3<<18)
	}
	if unique != 1<<18 {
		t.Fatalf("unique = %d, want %d (identical images dedup to one)", unique, 1<<18)
	}
}

func TestChunkerNames(t *testing.T) {
	tests := []struct {
		c    Chunker
		want string
	}{
		{Fixed{Size: 1 << 20}, "FsCH(1MB)"},
		{Fixed{Size: 1 << 10}, "FsCH(1KB)"},
		{Fixed{Size: 100}, "FsCH(100B)"},
		{ContentDefined{Window: 20, Bits: 14, Advance: 20}, "CbCH(no-overlap,m=20B,k=14b)"},
		{ContentDefined{Window: 20, Bits: 14, Advance: 1}, "CbCH(overlap,m=20B,k=14b)"},
		{ContentDefined{Window: 20, Bits: 14, Advance: 1, Rolling: true}, "CbCH(rolling,m=20B,k=14b)"},
	}
	for _, tt := range tests {
		if got := tt.c.Name(); got != tt.want {
			t.Errorf("Name() = %q, want %q", got, tt.want)
		}
	}
}

func BenchmarkFsCH1MB(b *testing.B) {
	benchChunker(b, Fixed{Size: 1 << 20})
}

func BenchmarkCbCHNoOverlap(b *testing.B) {
	benchChunker(b, ContentDefined{Window: 20, Bits: 14, Advance: 20})
}

func BenchmarkCbCHOverlap(b *testing.B) {
	benchChunker(b, ContentDefined{Window: 20, Bits: 14, Advance: 1})
}

func BenchmarkCbCHRolling(b *testing.B) {
	benchChunker(b, ContentDefined{Window: 20, Bits: 14, Advance: 1, Rolling: true})
}

func benchChunker(b *testing.B, c Chunker) {
	data := randBytes(99, 4<<20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = SplitAndHash(c, data)
	}
}
