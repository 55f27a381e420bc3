package wire

import (
	"bufio"
	"fmt"
	"net"
	"sync"

	"stdchk/internal/core"
)

// MuxConn is a multiplexed client connection: many goroutines issue calls
// concurrently over one socket, each request tagged with a fresh session
// ID and a reader goroutine routing every reply to its waiter. Compared
// to Conn — which serializes calls on a mutex — a MuxConn keeps many
// requests in flight at once, which is how millions of logical client
// sessions share a small number of manager connections.
//
// Sends are group-committed: a caller appends its encoded frame to the
// connection's transmit buffer, and whoever finds no transmission running
// writes everything gathered so far with one conn.Write (see send). Frames
// queued while a transmission is on the wire leave together as the next
// one, so a window of small requests costs one transmission, not one each.
//
// A transport error is sticky: it fails every pending and future call,
// and the owner (normally a shared Pool) replaces the connection.
type MuxConn struct {
	conn net.Conn

	// Send queue, guarded by smu. tx gathers encoded frames for the next
	// transmission while the flusher — the one caller with flushing set —
	// writes the previous batch with smu released; spare is the drained
	// buffer of the last transmission, swapped back in at the next one.
	smu       sync.Mutex
	scond     *sync.Cond // a transmission ended: room in tx, or the socket is free
	tx, spare []byte
	flushing  bool
	serr      error     // first send failure; fails queued and later sends
	solo      int       // callers waiting to take the socket for a large body
	vecs      [2][]byte // backing array for a large body's vectored write

	mu      sync.Mutex
	calls   map[uint64]chan muxReply
	nextSid uint64
	err     error // sticky transport error; set once

	readerDone chan struct{}
}

// muxReply carries one demultiplexed response (or the connection's fatal
// error) to its waiting caller.
type muxReply struct {
	msg Msg
	err error
}

// DialMux connects to addr and starts the reply-demux reader.
func DialMux(addr string, shaper Shaper) (*MuxConn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	conn := raw
	if shaper != nil {
		conn = shaper(raw)
	}
	c := &MuxConn{
		conn:       conn,
		calls:      make(map[uint64]chan muxReply),
		readerDone: make(chan struct{}),
	}
	c.scond = sync.NewCond(&c.smu)
	go c.readLoop()
	return c, nil
}

// readLoop demultiplexes response frames to waiting callers by session ID
// until the connection dies, then fails every pending call.
func (c *MuxConn) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.conn, connReadBufSize)
	for {
		// A fresh Msg per frame: Meta and Body ownership pass to the
		// waiter, so the loop must not reuse their backing arrays.
		var m Msg
		if err := ReadInto(br, &m); err != nil {
			c.fail(err)
			return
		}
		c.mu.Lock()
		ch := c.calls[m.Session]
		delete(c.calls, m.Session)
		c.mu.Unlock()
		if ch == nil {
			// Stray or duplicate session tag; drop the frame.
			if m.Body != nil {
				PutBuf(m.Body)
			}
			continue
		}
		ch <- muxReply{msg: m}
	}
}

// fail records the sticky error, closes the socket and unblocks every
// pending caller with the failure.
func (c *MuxConn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	pending := c.calls
	c.calls = make(map[uint64]chan muxReply)
	c.mu.Unlock()
	c.conn.Close()
	for _, ch := range pending {
		ch <- muxReply{err: err}
	}
}

// maxCoalescedBody is the largest request body copied into the transmit
// buffer. Up to here a copy is cheaper than a transmission of its own; a
// larger body (a default 1 MB chunk) is written from the caller's slice.
const maxCoalescedBody = 128 << 10

// send puts one request frame on the wire, or queues it behind the
// transmission in progress. ctl is the frame's encoded control part.
//
// A body of at most maxCoalescedBody is copied into tx behind ctl. If a
// flusher is running the frame is its to send and send returns at once;
// otherwise the caller becomes the flusher, with no goroutine hop for a
// lone call. A larger body is never copied: its caller waits for the
// socket, queues ctl last and writes tx and the body as one vectored
// write, so the body follows its own header. Either way body is not
// referenced once send returns.
//
// Only the flusher sees a write error; it fails the connection, which
// reaches every queued caller through its reply channel.
func (c *MuxConn) send(ctl, body []byte) error {
	large := len(body) > maxCoalescedBody
	need := len(ctl)
	if !large {
		need += len(body)
	}
	c.smu.Lock()
	if large {
		c.solo++
		for c.flushing && c.serr == nil {
			c.scond.Wait()
		}
		c.solo--
	} else {
		// A non-empty tx has a flusher that will drain it.
		for len(c.tx) > 0 && len(c.tx)+need > MaxPooledBuf && c.serr == nil {
			c.scond.Wait()
		}
	}
	if c.serr != nil {
		err := c.serr
		c.smu.Unlock()
		return err
	}
	c.tx = append(c.tx, ctl...)
	if !large {
		c.tx = append(c.tx, body...)
		body = nil
	}
	if !large && (c.flushing || c.solo > 0) {
		// The running flusher, or the large-body caller about to take
		// the socket, carries this frame.
		c.smu.Unlock()
		return nil
	}
	c.flushing = true
	var err error
	for err == nil && len(c.tx) > 0 {
		buf := c.tx
		c.tx, c.spare = c.spare[:0], nil
		c.scond.Broadcast() // tx has room again
		c.smu.Unlock()
		if body != nil {
			c.vecs[0], c.vecs[1] = buf, body
			vecs := net.Buffers(c.vecs[:])
			_, err = vecs.WriteTo(c.conn)
			c.vecs[0], c.vecs[1], body = nil, nil, nil
		} else {
			_, err = c.conn.Write(buf)
		}
		c.smu.Lock()
		c.spare = buf[:0]
		if c.solo > 0 {
			break // a large body is waiting: it takes over, tx and all
		}
	}
	if err != nil {
		c.serr = fmt.Errorf("wire: write frame: %w", err)
		err = c.serr
	}
	c.flushing = false
	c.scond.Broadcast()
	c.smu.Unlock()
	return err
}

// Call sends one request and waits for its demultiplexed response. It is
// safe — and intended — to call concurrently; requests interleave on the
// wire and responses may arrive in any order. reqBody is not referenced
// after Call returns. Response-body ownership matches Conn.Call: the
// returned slice is pooled and passes to the caller.
func (c *MuxConn) Call(op string, reqMeta interface{}, reqBody []byte, respMeta interface{}) ([]byte, error) {
	meta, err := MarshalMeta(reqMeta)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return nil, err
	}
	c.nextSid++
	sid := c.nextSid
	ch := make(chan muxReply, 1)
	c.calls[sid] = ch
	c.mu.Unlock()

	// Injectable transport failure, as in Conn.Call: the fault surfaces
	// exactly like a network send failing.
	if err := fpWireSend.Hit(); err != nil {
		c.abandon(sid)
		return nil, fmt.Errorf("wire: send %s: %w", op, err)
	}
	fe := encPool.Get().(*frameEncoder)
	ctl, err := appendFrame(fe.buf[:0], &Msg{Op: op, Session: sid, Meta: meta, Body: reqBody})
	if err != nil { // nothing reached the wire: the connection is intact
		encPool.Put(fe)
		c.abandon(sid)
		return nil, err
	}
	werr := c.send(ctl, reqBody)
	fe.buf = ctl[:0]
	encPool.Put(fe)
	if werr != nil {
		c.abandon(sid)
		c.fail(werr)
		return nil, werr
	}

	reply := <-ch
	if reply.err != nil {
		return nil, reply.err
	}
	resp := reply.msg
	if resp.Err != "" {
		if resp.Body != nil {
			PutBuf(resp.Body)
		}
		return nil, &RemoteError{Op: op, Msg: resp.Err}
	}
	if respMeta != nil {
		if err := UnmarshalMeta(resp.Meta, respMeta); err != nil {
			if resp.Body != nil {
				PutBuf(resp.Body)
			}
			return nil, err
		}
	}
	return resp.Body, nil
}

// abandon forgets a registered session before its request ever reached
// the wire (or after a failed write), so a late stray reply is dropped
// rather than delivered to a departed caller.
func (c *MuxConn) abandon(sid uint64) {
	c.mu.Lock()
	delete(c.calls, sid)
	c.mu.Unlock()
}

// Close tears the connection down, failing any pending calls with
// core.ErrClosed, and waits for the reader to exit.
func (c *MuxConn) Close() error {
	c.fail(core.ErrClosed)
	<-c.readerDone
	return nil
}

// broken reports whether the connection has hit its sticky error.
func (c *MuxConn) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil
}
