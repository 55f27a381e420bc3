// Package wire implements the framed message protocol spoken between
// stdchk components (client ↔ manager, client ↔ benefactor, benefactor ↔
// manager, benefactor ↔ benefactor for replication).
//
// A message is a small binary control header plus an optional raw body for
// bulk chunk data:
//
//	[4-byte big-endian header length][8-byte big-endian body length]
//	[header][body bytes]
//
// and the header is a fixed layout, decoded without reflection:
//
//	version  1 byte, frameVersion (5)
//	flags    1 byte, bit 0 = an error string follows the op
//	sid      uvarint session tag, 0 = untagged
//	op       uvarint length + bytes
//	err      uvarint length + bytes, only when flags bit 0 is set
//	meta     the rest of the header, opaque to the frame codec
//
// The version byte is not '{', so a frame from the JSON-header era of this
// protocol is refused with ErrFrameVersion at the first frame, on either
// end, instead of being misparsed: binaries from before and after the
// change do not interoperate, and a mixed cluster finds out immediately.
//
// Meta is encoded per message type (MarshalMeta, UnmarshalMeta). Messages
// that carry chunk IDs — 20 raw bytes each, and there may be thousands per
// message — and the four session messages every checkpoint sends (alloc
// request and reply, commit reply, map request) implement a fixed binary
// layout in package proto; every other message is small, rare or
// operator-facing and stays readable JSON inside the same frame. No type
// has both forms.
//
// Every transmission — a frame, or a run of queued frames on a MuxConn —
// is one vectored write: the control parts and the callers' own body
// slices go to the connection as one buffer list, in one call into it
// (WriteBuffers: a single writev on TCP). No body is copied to send it.
//
// The codec is allocation-conscious: frame prefixes and headers are
// marshalled into pooled scratch buffers, and message bodies are read into
// pooled buffers that callers hand back with PutBuf once consumed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
)

const (
	// MaxHeaderLen bounds the control header, meta included.
	MaxHeaderLen = 1 << 20
	// MaxBodyLen bounds a bulk body (a chunk plus slack).
	MaxBodyLen = 256 << 20
	// frameVersion is the first byte of every control header. It changes
	// when the header layout or a message's binary meta layout does (4:
	// GetMapResp gained the resolved version; 5: BPutBatch, and AllocReq,
	// AllocResp, CommitResp and GetMapReq went binary); a peer speaking any
	// other version is refused with ErrFrameVersion.
	frameVersion = 5
)

// flagErr marks a header that carries an error string after the op.
const flagErr = 1 << 0

// Errors returned by the codec.
var (
	ErrHeaderTooLarge = errors.New("wire: header exceeds limit")
	ErrBodyTooLarge   = errors.New("wire: body exceeds limit")
	// ErrFrameVersion reports a control header that does not start with
	// frameVersion: the peer runs another protocol version (a JSON-era
	// header starts with '{'). The connection cannot be used.
	ErrFrameVersion = errors.New("wire: unsupported frame version")

	errBadHeader = errors.New("wire: malformed header")
)

// Msg is one framed message. For requests, Op names the operation and Meta
// carries its parameters; for responses, Op is echoed, Err carries a
// remote error (empty on success) and Meta carries the result.
//
// Session, when non-zero, tags the frame with a multiplexing session ID:
// many logical sessions share one connection, requests carry the ID, and
// responses echo it so the client-side demux can route each reply to its
// waiter. Zero means "untagged": the one-outstanding-call protocol of
// Conn, which a server dispatches strictly in arrival order.
type Msg struct {
	Op      string
	Err     string
	Session uint64
	Meta    []byte
	Body    []byte
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

// frameEncoder is pooled per-Write scratch: the 12-byte prefix and the
// control header are built in buf so the control portion goes out as one
// slice, and the vectored-write slice header is recycled with it.
type frameEncoder struct {
	buf  []byte
	vecs net.Buffers
}

var encPool = sync.Pool{New: func() interface{} {
	return &frameEncoder{buf: make([]byte, 0, 512), vecs: make(net.Buffers, 0, 4)}
}}

// appendFrame appends m's control part — the 12-byte length prefix and the
// control header — to dst, for a body of bodyLen bytes that follows it on
// the wire (m.Body itself is not consulted). It is the one frame encoder:
// Write and the MuxConn send queue both build on it.
func appendFrame(dst []byte, m *Msg, bodyLen int) ([]byte, error) {
	if int64(bodyLen) > MaxBodyLen {
		return dst, ErrBodyTooLarge
	}
	start := len(dst)
	dst = append(dst, zeroPrefix[:]...)
	var flags byte
	if m.Err != "" {
		flags = flagErr
	}
	dst = append(dst, frameVersion, flags)
	dst = binary.AppendUvarint(dst, m.Session)
	dst = binary.AppendUvarint(dst, uint64(len(m.Op)))
	dst = append(dst, m.Op...)
	if m.Err != "" {
		dst = binary.AppendUvarint(dst, uint64(len(m.Err)))
		dst = append(dst, m.Err...)
	}
	dst = append(dst, m.Meta...)
	hlen := len(dst) - start - 12
	if hlen > MaxHeaderLen {
		return dst[:start], ErrHeaderTooLarge
	}
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(hlen))
	binary.BigEndian.PutUint64(dst[start+4:start+12], uint64(bodyLen))
	return dst, nil
}

// BuffersWriter is a connection that takes a whole transmission as a
// buffer list in one call. device.ShapedConn implements it, so a frame
// pays its modeled link delay once however many slices it is made of.
type BuffersWriter interface {
	WriteBuffers(bufs *net.Buffers) (int64, error)
}

// WriteBuffers sends bufs to w as one transmission, with one call into the
// connection: a *net.TCPConn gets one vectored write (writev), a
// BuffersWriter one WriteBuffers, and any other net.Conn (a wrapper that
// observes or scripts its writes) the bytes gathered into one pooled
// buffer and passed to one Write. A writer that is not a connection gets
// the buffers one after another. It is the one place a frame meets its
// connection: Write, MuxConn and device.ShapedConn all send through it.
// Like net.Buffers.WriteTo it may consume bufs, and bufs should not live
// on the caller's stack: WriteTo would move it to the heap per call.
func WriteBuffers(w io.Writer, bufs *net.Buffers) (int64, error) {
	if len(*bufs) == 1 {
		n, err := w.Write((*bufs)[0])
		return int64(n), err
	}
	switch c := w.(type) {
	case *net.TCPConn:
		return bufs.WriteTo(c)
	case BuffersWriter:
		return c.WriteBuffers(bufs)
	case net.Conn:
		one := GetBuf(bodySize(*bufs))[:0]
		for _, b := range *bufs {
			one = append(one, b...)
		}
		n, err := c.Write(one)
		PutBuf(one)
		return int64(n), err
	}
	return bufs.WriteTo(w)
}

// Write frames and writes m to w as one transmission (WriteBuffers).
func Write(w io.Writer, m *Msg) error {
	fe := encPool.Get().(*frameEncoder)
	defer encPool.Put(fe)
	frame, err := appendFrame(fe.buf[:0], m, len(m.Body))
	fe.buf = frame[:0]
	if err != nil {
		return err
	}
	vecs := append(fe.vecs[:0], frame)
	if len(m.Body) > 0 {
		vecs = append(vecs, m.Body)
	}
	fe.vecs = vecs
	_, err = WriteBuffers(w, &fe.vecs)
	clear(vecs) // drop the body reference before pooling
	fe.vecs = vecs[:0]
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// bodySize is the length of a body in pieces, or of a buffer list.
func bodySize(body [][]byte) int {
	n := 0
	for _, p := range body {
		n += len(p)
	}
	return n
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

// decodeHeader parses a control header into m, reusing m.Meta's capacity
// for the copied metadata (and m.Op itself when the op repeats, as it does
// on a connection's reused response frame). Every length is checked
// against the bytes that remain before it is used.
func decodeHeader(hb []byte, m *Msg) error {
	if len(hb) < 2 {
		return errBadHeader
	}
	if hb[0] != frameVersion {
		return fmt.Errorf("%w: header starts with 0x%02x, want 0x%02x", ErrFrameVersion, hb[0], frameVersion)
	}
	flags := hb[1]
	if flags&^flagErr != 0 {
		return errBadHeader
	}
	sid, n := binary.Uvarint(hb[2:])
	if n <= 0 {
		return errBadHeader
	}
	op, rest, ok := cutBytes(hb[2+n:])
	if !ok {
		return errBadHeader
	}
	var errStr []byte
	if flags&flagErr != 0 {
		if errStr, rest, ok = cutBytes(rest); !ok {
			return errBadHeader
		}
	}
	if m.Op != string(op) { // the comparison does not allocate
		m.Op = string(op)
	}
	m.Err = string(errStr)
	m.Session = sid
	if len(rest) > 0 {
		m.Meta = append(m.Meta[:0], rest...)
	} else {
		m.Meta = nil
	}
	return nil
}

// cutBytes splits a uvarint-length-prefixed field off the front of b.
func cutBytes(b []byte) (field, rest []byte, ok bool) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, false
	}
	end := w + int(n)
	return b[w:end], b[end:], true
}
