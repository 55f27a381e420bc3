package chunker

import (
	"fmt"

	"stdchk/internal/hashing"
)

// StreamParams bound the spans of the live (write-path) CbCH chunker. The
// offline heuristics in this package split a complete in-memory image; the
// write path instead sees the checkpoint as a byte stream, so the boundary
// finder must be incremental and its spans must be bounded on both sides to
// keep buffer pooling and space-reservation math sane:
//
//   - Min suppresses boundaries until a span has at least Min bytes, which
//     caps the per-chunk metadata overhead.
//   - Bits sets the expected spacing past Min (one boundary per 2^Bits
//     window positions, as in the offline ContentDefined chunker).
//   - Max force-cuts content that offers no boundary (constant bytes; long
//     zero runs, whose all-zero windows are never boundaries — see
//     hashing.Rolling.Scan) so a span never exceeds the pooled buffer
//     capacity the writer reserves.
type StreamParams struct {
	// Window is the rolling-hash window in bytes (0 = 48, the LBFS-style
	// default used by the rolling ablation).
	Window int
	// Bits is k: a non-zero window hash whose low k bits are zero ends the
	// span. Expected span length is Min + 2^Bits bytes.
	Bits uint
	// Min is the minimum span length; boundaries earlier than this are
	// suppressed (0 = Window).
	Min int64
	// Max is the hard span cap (0 = 4 * (Min + 2^Bits)).
	Max int64
}

// WithDefaults fills unset fields.
func (p StreamParams) WithDefaults() StreamParams {
	if p.Window <= 0 {
		p.Window = 48
	}
	if p.Bits == 0 {
		p.Bits = 16 // 64 KiB expected spacing past Min
	}
	if p.Min <= 0 {
		p.Min = int64(p.Window)
	}
	if p.Max <= 0 {
		p.Max = 4 * (p.Min + int64(1)<<p.Bits)
	}
	if p.Max < p.Min {
		p.Max = p.Min
	}
	return p
}

// Name identifies the parameterization, mirroring Chunker.Name.
func (p StreamParams) Name() string {
	p = p.WithDefaults()
	return fmt.Sprintf("CbCH(stream,m=%dB,k=%db,%s..%s)", p.Window, p.Bits, byteSize(p.Min), byteSize(p.Max))
}

// Stream finds content-defined chunk boundaries incrementally, one Feed
// call per arbitrary application write. The rolling hash runs continuously
// over the byte stream (it is NOT reset at a cut), so a boundary depends
// only on the Window bytes before it — after an insertion or deletion the
// boundary sequence re-synchronizes within one window, which is what lets
// shifted-but-identical content across checkpoint versions hash to the
// same chunks (the paper's Table 3 CbCH result, live).
//
// Stream holds no bytes and looks at none itself: Feed is bounds
// arithmetic (Min, Max, the span length so far) around one
// hashing.Rolling.Scan over the caller's slice, so the scan runs at the
// speed of that kernel for any write size above a few hundred bytes.
type Stream struct {
	p StreamParams
	r *hashing.Rolling
	// length is the size of the span being accumulated.
	length int64
}

// NewStream returns a boundary finder with the given (defaulted) bounds.
func NewStream(p StreamParams) *Stream {
	p = p.WithDefaults()
	return &Stream{p: p, r: hashing.NewRolling(p.Window)}
}

// Params returns the effective (defaulted) parameters.
func (s *Stream) Params() StreamParams { return s.p }

// Feed scans p for the end of the current span. It returns how many bytes
// of p belong to the current span and whether those bytes complete it
// (boundary found or Max reached). When cut is false, all of p has been
// consumed and the span continues into the next Feed call.
func (s *Stream) Feed(p []byte) (n int, cut bool) {
	// The span ends at Max at the latest: look no further than that.
	room := s.p.Max - s.length
	forced := int64(len(p)) >= room
	if forced {
		p = p[:room]
	}
	// No byte that leaves the span shorter than Min can end it.
	quiet := 0
	if q := s.p.Min - 1 - s.length; q > 0 {
		quiet = int(min(q, int64(len(p))))
		s.r.Slide(p[:quiet])
	}
	if n := s.r.Scan(p[quiet:], s.p.Bits); n > 0 {
		s.length = 0
		return quiet + n, true
	}
	if forced {
		s.length = 0
		return len(p), true
	}
	s.length += int64(len(p))
	return len(p), false
}

// Flush ends the stream: any bytes accumulated since the last cut form the
// final (possibly sub-Min) span. It returns that span's length and resets
// the stream for reuse on a new byte stream.
func (s *Stream) Flush() int64 {
	n := s.length
	s.Reset()
	return n
}

// Reset prepares the stream for a new input.
func (s *Stream) Reset() {
	s.r.Reset()
	s.length = 0
}

// Split implements Chunker by driving a fresh Stream over the whole image,
// so offline measurements (Table 3 harness) can evaluate exactly the
// boundary set the live write path produces.
func (p StreamParams) Split(data []byte) []Span {
	s := NewStream(p)
	var spans []Span
	var off int64
	rest := data
	for len(rest) > 0 {
		n, cut := s.Feed(rest)
		if !cut {
			break
		}
		spans = append(spans, Span{Off: off, Len: int64(n)})
		off += int64(n)
		rest = rest[n:]
	}
	if tail := s.Flush(); tail > 0 {
		spans = append(spans, Span{Off: off, Len: tail})
	}
	return spans
}

var _ Chunker = StreamParams{}
