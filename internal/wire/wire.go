// Package wire implements the framed message protocol spoken between
// stdchk components (client ↔ manager, client ↔ benefactor, benefactor ↔
// manager, benefactor ↔ benefactor for replication).
//
// A message is a small JSON control header plus an optional raw body for
// bulk chunk data:
//
//	[4-byte big-endian header length][header JSON]
//	[8-byte big-endian body length][body bytes]
//
// Control metadata stays human-debuggable while chunk payloads move as raw
// bytes without re-encoding.
//
// The codec is allocation-conscious: frame prefixes and headers are
// marshalled into pooled scratch buffers, a frame with a body is written
// with one vectored net.Buffers write (a single writev on TCP) instead of
// three Write calls, and message bodies are read into pooled buffers that
// callers hand back with PutBuf once consumed.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
)

const (
	// MaxHeaderLen bounds the JSON control header.
	MaxHeaderLen = 1 << 20
	// MaxBodyLen bounds a bulk body (a chunk plus slack).
	MaxBodyLen = 256 << 20
)

// Errors returned by the codec.
var (
	ErrHeaderTooLarge = errors.New("wire: header exceeds limit")
	ErrBodyTooLarge   = errors.New("wire: body exceeds limit")
)

// Msg is one framed message. For requests, Op names the operation and Meta
// carries its parameters; for responses, Op is echoed, Err carries a
// remote error (empty on success) and Meta carries the result.
//
// Session, when non-zero, tags the frame with a multiplexing session ID:
// many logical sessions share one connection, requests carry the ID, and
// responses echo it so the client-side demux can route each reply to its
// waiter. Zero means "untagged" — the classic one-outstanding-call
// protocol — and is omitted from the wire form entirely, so old peers and
// new peers interoperate frame-for-frame.
type Msg struct {
	Op      string          `json:"op"`
	Err     string          `json:"err,omitempty"`
	Session uint64          `json:"sid,omitempty"`
	Meta    json.RawMessage `json:"meta,omitempty"`
	Body    []byte          `json:"-"`
}

// header is the wire form of the JSON control portion.
type header struct {
	Op   string          `json:"op"`
	Err  string          `json:"err,omitempty"`
	Sid  uint64          `json:"sid,omitempty"`
	Meta json.RawMessage `json:"meta,omitempty"`
}

// MaxPooledBuf is the capacity of the largest pooled buffer class: a
// default 1 MB chunk plus frame slack. A body that fits comes from, and
// returns to, the pool; a larger one is a plain allocation the GC takes.
// Peers that assemble multi-chunk bodies (BGetBatch) bound them here.
const MaxPooledBuf = (1 << 20) + (64 << 10)

// bufClassSizes are the capacities of the shared buffer pool's size
// classes: control headers/metas, medium frames, and full chunk bodies.
// Larger requests fall through to plain allocation.
var bufClassSizes = [...]int{4 << 10, 64 << 10, MaxPooledBuf}

var bufPools [len(bufClassSizes)]sync.Pool

// wrapPool recycles the *[]byte boxes that carry slices through bufPools,
// so PutBuf itself does not allocate in steady state.
var wrapPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// GetBuf returns a length-n byte slice, reusing a pooled buffer when one of
// the size classes covers n. Hand the slice back with PutBuf when done.
func GetBuf(n int) []byte {
	for i, size := range bufClassSizes {
		if n <= size {
			if v := bufPools[i].Get(); v != nil {
				w := v.(*[]byte)
				b := *w
				*w = nil
				wrapPool.Put(w)
				return b[:n]
			}
			return make([]byte, n, size)
		}
	}
	return make([]byte, n)
}

// PutBuf returns a buffer obtained from GetBuf (or any other slice no one
// else retains) to the pool. The caller must not touch b afterwards.
func PutBuf(b []byte) {
	c := cap(b)
	if c > MaxPooledBuf {
		// Larger than any class: GetBuf would never hand it out for a
		// same-size request (oversized reads fall through to plain
		// allocation), so pooling it would only pin the memory.
		return
	}
	for i := len(bufClassSizes) - 1; i >= 0; i-- {
		if c >= bufClassSizes[i] {
			w := wrapPool.Get().(*[]byte)
			*w = b[:0]
			bufPools[i].Put(w)
			return
		}
	}
	// Below the smallest class: not worth pooling.
}

// frameEncoder is pooled per-Write scratch: the 12-byte prefix and the JSON
// header are built in buf so the control portion goes out as one slice, and
// the vectored-write slice header is recycled with it.
type frameEncoder struct {
	buf  []byte
	vecs net.Buffers
}

var encPool = sync.Pool{New: func() interface{} {
	return &frameEncoder{buf: make([]byte, 0, 512), vecs: make(net.Buffers, 0, 2)}
}}

// appendJSONString appends s as a JSON string literal (quoted, with the
// escapes JSON requires; multi-byte UTF-8 passes through raw, which JSON
// allows).
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c >= 0x20:
			dst = append(dst, c)
		case c == '\n':
			dst = append(dst, '\\', 'n')
		case c == '\r':
			dst = append(dst, '\\', 'r')
		case c == '\t':
			dst = append(dst, '\\', 't')
		default:
			const hex = "0123456789abcdef"
			dst = append(dst, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		}
	}
	return append(dst, '"')
}

// appendHeader marshals the control header by hand — the shape is a flat
// three-field object, and building it directly into the pooled scratch
// keeps encoding/json (and its per-call scanner state) off the hot path.
func appendHeader(dst []byte, m *Msg) []byte {
	dst = append(dst, `{"op":`...)
	dst = appendJSONString(dst, m.Op)
	if m.Err != "" {
		dst = append(dst, `,"err":`...)
		dst = appendJSONString(dst, m.Err)
	}
	if m.Session != 0 {
		dst = append(dst, `,"sid":`...)
		dst = strconv.AppendUint(dst, m.Session, 10)
	}
	if len(m.Meta) > 0 {
		dst = append(dst, `,"meta":`...)
		dst = append(dst, m.Meta...)
	}
	return append(dst, '}')
}

// appendFrame appends m's control part — the 12-byte length prefix and the
// JSON header — to dst. The body, if any, follows it on the wire. It is the
// one frame encoder: Write and the MuxConn send queue both build on it.
func appendFrame(dst []byte, m *Msg) ([]byte, error) {
	if int64(len(m.Body)) > MaxBodyLen {
		return dst, ErrBodyTooLarge
	}
	start := len(dst)
	dst = append(dst, zeroPrefix[:]...)
	dst = appendHeader(dst, m)
	hlen := len(dst) - start - 12
	if hlen > MaxHeaderLen {
		return dst[:start], ErrHeaderTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(hlen))
	binary.BigEndian.PutUint64(dst[start+4:start+12], uint64(len(m.Body)))
	return dst, nil
}

// Write frames and writes m to w. A frame with a body is emitted as one
// vectored write (net.Buffers), which becomes a single writev syscall on
// TCP connections and two plain writes on wrapped (shaped) ones.
func Write(w io.Writer, m *Msg) error {
	fe := encPool.Get().(*frameEncoder)
	defer encPool.Put(fe)
	frame, err := appendFrame(fe.buf[:0], m)
	fe.buf = frame[:0]
	if err != nil {
		return err
	}
	if len(m.Body) == 0 {
		if _, err := w.Write(frame); err != nil {
			return fmt.Errorf("wire: write frame: %w", err)
		}
		return nil
	}
	fe.vecs = append(fe.vecs[:0], frame, m.Body)
	vecs := fe.vecs // WriteTo advances its receiver; keep fe.vecs anchored
	_, err = vecs.WriteTo(w)
	fe.vecs[0], fe.vecs[1] = nil, nil // drop the body reference before pooling
	fe.vecs = fe.vecs[:0]
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// Read reads one framed message from r. The returned message's Body is
// backed by a pooled buffer: ownership passes to the caller, who should
// return it with PutBuf once consumed (or let the GC take it).
func Read(r io.Reader) (*Msg, error) {
	m := &Msg{}
	if err := ReadInto(r, m); err != nil {
		return nil, err
	}
	return m, nil
}

// ReadInto reads one framed message into m, overwriting its fields. It is
// the reuse-friendly form of Read: callers that loop over frames can reuse
// one Msg. Body ownership is the same as Read's.
func ReadInto(r io.Reader, m *Msg) error {
	var pre [12]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return io.EOF
		}
		return fmt.Errorf("wire: read frame prefix: %w", err)
	}
	hlen := binary.BigEndian.Uint32(pre[0:4])
	blen := binary.BigEndian.Uint64(pre[4:12])
	if hlen > MaxHeaderLen {
		return ErrHeaderTooLarge
	}
	if blen > MaxBodyLen {
		return ErrBodyTooLarge
	}
	hb := GetBuf(int(hlen))
	if _, err := io.ReadFull(r, hb); err != nil {
		PutBuf(hb)
		return fmt.Errorf("wire: read header: %w", err)
	}
	err := decodeHeader(hb, m)
	PutBuf(hb) // the decoder copies what it keeps, so hb is free
	if err != nil {
		return fmt.Errorf("wire: decode header: %w", err)
	}
	m.Body = nil
	if blen > 0 {
		body := GetBuf(int(blen))
		if _, err := io.ReadFull(r, body); err != nil {
			PutBuf(body)
			return fmt.Errorf("wire: read body: %w", err)
		}
		m.Body = body
	}
	return nil
}

var zeroPrefix [12]byte

// decodeHeader parses the flat control-header object into m, reusing
// m.Meta's capacity for the copied raw metadata. It hand-parses the shape
// this package's encoder emits and falls back to encoding/json for
// anything else (escaped strings, unknown fields, reordered keys), so any
// valid JSON header still decodes.
func decodeHeader(hb []byte, m *Msg) error {
	op, errStr, meta, sid, ok := scanHeader(hb)
	if !ok {
		var h header
		if err := json.Unmarshal(hb, &h); err != nil {
			return err
		}
		m.Op, m.Err, m.Session, m.Meta = h.Op, h.Err, h.Sid, h.Meta
		return nil
	}
	m.Op = string(op)
	m.Err = string(errStr)
	m.Session = sid
	if len(meta) > 0 {
		m.Meta = append(m.Meta[:0], meta...)
	} else {
		m.Meta = nil
	}
	return nil
}

// scanHeader is the allocation-free fast path for the canonical header
// shape: a flat object with unescaped "op"/"err" strings, a numeric "sid"
// and a "meta" raw value. ok=false means "use the full JSON decoder", not
// "invalid".
func scanHeader(b []byte) (op, errStr, meta []byte, sid uint64, ok bool) {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return nil, nil, nil, 0, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return nil, nil, nil, 0, true // empty header object
	}
	for {
		key, rest, kok := scanPlainString(b, i)
		if !kok {
			return nil, nil, nil, 0, false
		}
		i = skipSpace(b, rest)
		if i >= len(b) || b[i] != ':' {
			return nil, nil, nil, 0, false
		}
		i = skipSpace(b, i+1)
		switch string(key) {
		case "op":
			v, rest, vok := scanPlainString(b, i)
			if !vok {
				return nil, nil, nil, 0, false
			}
			op, i = v, rest
		case "err":
			v, rest, vok := scanPlainString(b, i)
			if !vok {
				return nil, nil, nil, 0, false
			}
			errStr, i = v, rest
		case "sid":
			v, rest, vok := scanUint(b, i)
			if !vok {
				return nil, nil, nil, 0, false
			}
			sid, i = v, rest
		case "meta":
			end, vok := scanValue(b, i)
			if !vok {
				return nil, nil, nil, 0, false
			}
			meta, i = b[i:end], end
		default:
			return nil, nil, nil, 0, false
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return nil, nil, nil, 0, false
		}
		if b[i] == '}' {
			if skipSpace(b, i+1) != len(b) {
				return nil, nil, nil, 0, false
			}
			return op, errStr, meta, sid, true
		}
		if b[i] != ',' {
			return nil, nil, nil, 0, false
		}
		i = skipSpace(b, i+1)
	}
}

// scanUint scans an unsigned decimal JSON number. Signs, fractions and
// exponents defer to the full decoder.
func scanUint(b []byte, i int) (v uint64, rest int, ok bool) {
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		d := uint64(b[j] - '0')
		if v > (^uint64(0)-d)/10 {
			return 0, 0, false // overflow: let encoding/json report it
		}
		v = v*10 + d
		j++
	}
	if j == i {
		return 0, 0, false
	}
	return v, j, true
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanPlainString scans a JSON string with no escapes, returning its
// contents. Any backslash defers to the full decoder.
func scanPlainString(b []byte, i int) (s []byte, rest int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			return nil, 0, false
		case '"':
			return b[i+1 : j], j + 1, true
		}
	}
	return nil, 0, false
}

// scanValue returns the end offset of the JSON value starting at i,
// honouring nesting and strings (with escapes).
func scanValue(b []byte, i int) (end int, ok bool) {
	if i >= len(b) {
		return 0, false
	}
	switch b[i] {
	case '{', '[':
		depth := 0
		for j := i; j < len(b); j++ {
			switch b[j] {
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return j + 1, true
				}
			case '"':
				strEnd, sok := scanStringAny(b, j)
				if !sok {
					return 0, false
				}
				j = strEnd - 1
			}
		}
		return 0, false
	case '"':
		return scanStringAny(b, i)
	default:
		j := i
		for j < len(b) {
			c := b[j]
			if c == ',' || c == '}' || c == ']' || c == ' ' || c == '\t' || c == '\n' || c == '\r' {
				break
			}
			j++
		}
		if j == i {
			return 0, false
		}
		return j, true
	}
}

// scanStringAny scans a JSON string allowing escapes, returning the offset
// just past the closing quote.
func scanStringAny(b []byte, i int) (end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++ // skip the escaped byte
		case '"':
			return j + 1, true
		}
	}
	return 0, false
}

// MarshalMeta encodes v as a message's Meta field.
func MarshalMeta(v interface{}) (json.RawMessage, error) {
	if v == nil {
		return nil, nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal meta: %w", err)
	}
	return b, nil
}

// UnmarshalMeta decodes a message's Meta field into v. A nil Meta leaves v
// untouched.
func UnmarshalMeta(raw json.RawMessage, v interface{}) error {
	if len(raw) == 0 {
		return nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("wire: decode meta: %w", err)
	}
	return nil
}
