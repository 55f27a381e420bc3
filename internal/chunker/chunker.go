// Package chunker implements the similarity-detection heuristics of paper
// §IV.C: fixed-size compare-by-hash (FsCH) and content-based compare-by-hash
// (CbCH), in both the "overlap" (window advanced by one byte) and
// "no-overlap" (window advanced by its own size) configurations, plus a
// rolling-hash variant of overlap CbCH as an ablation.
//
// A chunker deterministically splits a checkpoint image into spans; spans
// are then named by their content hash. Two versions of a checkpoint image
// share all spans whose hashes collide, which is what the storage system
// exploits to store and transfer only new chunks.
package chunker

import (
	"fmt"

	"stdchk/internal/core"
	"stdchk/internal/hashing"
)

// Span is a half-open byte range [Off, Off+Len) of an image.
type Span struct {
	Off int64
	Len int64
}

// Chunk is a span plus its content-based name.
type Chunk struct {
	Span
	ID core.ChunkID
}

// Chunker deterministically splits an image into contiguous spans covering
// it exactly.
type Chunker interface {
	// Name identifies the heuristic and its parameters, e.g. "FsCH(1MB)".
	Name() string
	// Split returns the chunk boundaries for the image. The spans are
	// contiguous, non-empty and cover the image exactly.
	Split(data []byte) []Span
}

// Fixed is FsCH: equal-size chunks at fixed offsets. It is the fastest
// heuristic (one content hash per chunk, no boundary scan) but any byte
// insertion or deletion shifts all subsequent chunk contents and defeats
// matching (paper §IV.C).
type Fixed struct {
	// Size is the chunk size in bytes.
	Size int64
}

var _ Chunker = Fixed{}

// Name implements Chunker.
func (f Fixed) Name() string { return fmt.Sprintf("FsCH(%s)", byteSize(f.Size)) }

// Split implements Chunker.
func (f Fixed) Split(data []byte) []Span {
	size := f.Size
	if size <= 0 {
		size = core.DefaultChunkSize
	}
	n := int64(len(data))
	spans := make([]Span, 0, int(n/size)+1)
	for off := int64(0); off < n; off += size {
		l := size
		if off+l > n {
			l = n - off
		}
		spans = append(spans, Span{Off: off, Len: l})
	}
	return spans
}

// ContentDefined is CbCH: a window of Window bytes slides over the image
// advancing Advance bytes per step; a step whose window hash has its lowest
// Bits bits zero ends the current chunk (paper §IV.C). Advance=1 is the
// paper's "overlap" configuration; Advance=Window is "no-overlap".
type ContentDefined struct {
	// Window is m, the window size in bytes.
	Window int
	// Bits is k, the number of low hash bits compared to zero. Expected
	// spacing between boundaries is Advance << Bits bytes.
	Bits uint
	// Advance is p, the number of bytes the window advances per step.
	// Values <= 0 default to 1 (overlap).
	Advance int
	// MaxLen optionally caps chunk length (0 = no cap). A cap bounds the
	// worst case for pathological content (e.g. long runs of zeros that
	// never produce a boundary).
	MaxLen int64
	// Rolling selects the O(1)-per-byte rolling-hash implementation.
	// Only meaningful with Advance == 1; it is the standard fix (LBFS)
	// for the overlap configuration's throughput collapse and is
	// benchmarked as an ablation.
	Rolling bool
}

var _ Chunker = ContentDefined{}

// Name implements Chunker.
func (c ContentDefined) Name() string {
	mode := "no-overlap"
	if c.advance() == 1 {
		mode = "overlap"
		if c.Rolling {
			mode = "rolling"
		}
	}
	return fmt.Sprintf("CbCH(%s,m=%dB,k=%db)", mode, c.window(), c.Bits)
}

func (c ContentDefined) window() int {
	if c.Window <= 0 {
		return 48
	}
	return c.Window
}

func (c ContentDefined) advance() int {
	if c.Advance <= 0 {
		return 1
	}
	return c.Advance
}

// Split implements Chunker.
func (c ContentDefined) Split(data []byte) []Span {
	if len(data) == 0 {
		return nil
	}
	if c.Rolling && c.advance() == 1 {
		return c.splitRolling(data)
	}
	return c.splitScan(data)
}

// splitScan recomputes the window hash at every position, which is what the
// paper's measured configurations do: cost is O(Window) per step, hence
// O(n*Window/Advance) per image.
func (c ContentDefined) splitScan(data []byte) []Span {
	m, p := c.window(), c.advance()
	n := int64(len(data))
	var spans []Span
	start := int64(0)
	for pos := int64(0); pos+int64(m) <= n; pos += int64(p) {
		h := hashing.WindowHash(data[pos : pos+int64(m)])
		end := pos + int64(m)
		if hashing.Boundary(h, c.Bits) && end > start {
			spans = append(spans, Span{Off: start, Len: end - start})
			start = end
			pos = end - int64(p) // next window starts at the boundary
			continue
		}
		if c.MaxLen > 0 && end-start >= c.MaxLen {
			spans = append(spans, Span{Off: start, Len: end - start})
			start = end
			pos = end - int64(p)
		}
	}
	if start < n {
		spans = append(spans, Span{Off: start, Len: n - start})
	}
	return spans
}

// splitRolling produces boundaries with a polynomial rolling hash updated in
// O(1) per byte — the scan the live chunker runs (hashing.Rolling.Scan),
// here without a minimum span. The boundary set differs from splitScan
// (different hash function) but has the same statistical spacing; it exists
// to quantify how much of overlap-CbCH's cost is algorithmic rather than
// essential.
func (c ContentDefined) splitRolling(data []byte) []Span {
	m := c.window()
	n := int64(len(data))
	if n < int64(m) {
		return []Span{{Off: 0, Len: n}}
	}
	r := hashing.NewRolling(m)
	// The first position tested is the first whole window.
	r.Slide(data[:m-1])
	var spans []Span
	start, pos := int64(0), int64(m-1)
	for pos < n {
		// A span ends at a boundary, at MaxLen, or with the image.
		end := n
		if c.MaxLen > 0 {
			end = min(n, max(start+c.MaxLen, int64(m)))
		}
		if k := r.Scan(data[pos:end], c.Bits); k > 0 {
			end = pos + int64(k)
		}
		spans = append(spans, Span{Off: start, Len: end - start})
		start, pos = end, end
	}
	return spans
}

// HashSpans names each span by the content hash of its bytes.
func HashSpans(data []byte, spans []Span) []Chunk {
	chunks := make([]Chunk, len(spans))
	for i, s := range spans {
		chunks[i] = Chunk{Span: s, ID: core.HashChunk(data[s.Off : s.Off+s.Len])}
	}
	return chunks
}

// SplitAndHash runs the chunker and names every chunk.
func SplitAndHash(c Chunker, data []byte) []Chunk {
	return HashSpans(data, c.Split(data))
}

// Validate checks that spans are contiguous, non-empty and cover exactly
// [0, size).
func Validate(spans []Span, size int64) error {
	var off int64
	for i, s := range spans {
		if s.Len <= 0 {
			return fmt.Errorf("span %d has non-positive length %d", i, s.Len)
		}
		if s.Off != off {
			return fmt.Errorf("span %d starts at %d, want %d", i, s.Off, off)
		}
		off += s.Len
	}
	if off != size {
		return fmt.Errorf("spans cover %d bytes, image is %d", off, size)
	}
	return nil
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<20 && n%(1<<20) == 0:
		return fmt.Sprintf("%dMB", n/(1<<20))
	case n >= 1<<10 && n%(1<<10) == 0:
		return fmt.Sprintf("%dKB", n/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
