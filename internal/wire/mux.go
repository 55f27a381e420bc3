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
// Sends are group-committed: a caller queues its frame — the encoded
// control part and a reference to its body — and whoever finds no
// transmission running writes everything queued so far as one
// transmission (see send). Frames queued while a transmission is on the
// wire leave together as the next one, so a window of small requests
// costs one transmission, not one each. No body is copied: it goes to the
// connection as the caller's own slice, in one vectored write.
//
// A transport error is sticky: it fails every pending and future call,
// and the owner (normally a Pool) replaces the connection.
type MuxConn struct {
	conn net.Conn

	// Send queue, guarded by smu. q gathers the next transmission while
	// the flusher — the one caller with flushing set — writes the previous
	// one with smu released; spare is that transmission's queue, emptied
	// and swapped back in at the next one. taken and ended count the
	// transmissions the flusher has taken from q and finished writing, so
	// a call that fails can wait out the one that reads its body.
	smu          sync.Mutex
	scond        *sync.Cond // a transmission was taken or ended
	q, spare     *sendQueue // point into queues
	queues       [2]sendQueue
	flushing     bool
	serr         error // first send failure; fails queued and later sends
	taken, ended uint64

	mu      sync.Mutex
	calls   map[uint64]chan muxReply
	nextSid uint64
	err     error // sticky transport error; set once

	readerDone chan struct{}
}

// muxReply carries one demultiplexed response — its meta, in a pooled
// buffer the caller hands back, its body, or the peer's error string — or
// the connection's fatal error to the waiting caller.
type muxReply struct {
	meta, body []byte
	remote     string
	err        error
}

// replyChans recycles the callers' one-slot reply channels. A channel goes
// back empty, and only once no send to it is owed (see release).
var replyChans = sync.Pool{New: func() interface{} { return make(chan muxReply, 1) }}

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
	for i := range c.queues {
		// Room for a batched put of small chunks without regrowing.
		c.queues[i] = sendQueue{ctl: make([]byte, 0, 1<<10), cuts: make([]bodyCut, 0, 16), vecs: make(net.Buffers, 0, 32)}
	}
	c.q, c.spare = &c.queues[0], &c.queues[1]
	c.scond = sync.NewCond(&c.smu)
	go c.readLoop()
	return c, nil
}

// readLoop demultiplexes response frames to waiting callers by session ID
// until the connection dies, then fails every pending call. The frame
// header is decoded into one Msg per connection, whose Op and meta buffer
// are reused from frame to frame: a waiter gets the body and a pooled copy
// of the meta.
func (c *MuxConn) readLoop() {
	defer close(c.readerDone)
	br := bufio.NewReaderSize(c.conn, connReadBufSize)
	var hdr Msg
	var meta []byte // hdr's meta buffer, kept across frames without meta
	for {
		hdr.Meta = meta
		if err := ReadInto(br, &hdr); err != nil {
			c.fail(err)
			return
		}
		if hdr.Meta != nil {
			meta = hdr.Meta
		}
		c.mu.Lock()
		ch := c.calls[hdr.Session]
		delete(c.calls, hdr.Session)
		c.mu.Unlock()
		if ch == nil {
			// Stray or duplicate session tag; drop the frame.
			if hdr.Body != nil {
				PutBuf(hdr.Body)
			}
			continue
		}
		r := muxReply{body: hdr.Body, remote: hdr.Err}
		if len(hdr.Meta) > 0 {
			r.meta = append(GetBuf(len(hdr.Meta))[:0], hdr.Meta...)
		}
		ch <- r
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

// MaxCoalescedBody bounds the body of one batched put: a writer closes a
// BPutBatch at this size (or at BufferBytes/8, if smaller). The mux itself
// sends every body by reference, whatever its size.
const MaxCoalescedBody = 128 << 10

// sendQueue is one transmission being gathered: the control parts of its
// frames back to back in ctl, and cuts, in order, for the body pieces that
// follow them on the wire. Bodies are the callers' slices, not copies.
type sendQueue struct {
	ctl  []byte
	cuts []bodyCut
	size int         // bytes queued: control parts and bodies
	vecs net.Buffers // the transmission's buffer list, built when written
}

// bodyCut places one body piece on the wire after ctl[:at].
type bodyCut struct {
	at   int
	body []byte
}

// add queues one frame: its control part, then its body pieces.
func (q *sendQueue) add(ctl []byte, body [][]byte, size int) {
	q.ctl = append(q.ctl, ctl...)
	for _, p := range body {
		if len(p) > 0 {
			q.cuts = append(q.cuts, bodyCut{at: len(q.ctl), body: p})
		}
	}
	q.size += size
}

// buffers lays the queue out as the buffer list it goes to the wire as:
// spans of ctl between the body pieces.
func (q *sendQueue) buffers() net.Buffers {
	vecs := q.vecs[:0]
	prev := 0
	for _, cut := range q.cuts {
		if cut.at > prev {
			vecs = append(vecs, q.ctl[prev:cut.at])
			prev = cut.at
		}
		vecs = append(vecs, cut.body)
	}
	if prev < len(q.ctl) {
		vecs = append(vecs, q.ctl[prev:])
	}
	q.vecs = vecs
	return vecs
}

// reset empties the queue, dropping its references to callers' bodies.
func (q *sendQueue) reset() {
	clear(q.cuts)
	clear(q.vecs)
	q.ctl, q.cuts, q.vecs, q.size = q.ctl[:0], q.cuts[:0], q.vecs[:0], 0
}

// send queues one request frame, ctl its encoded control part and body its
// body in pieces, and returns the number of the transmission that carries
// it. A frame that would take the queue past MaxPooledBuf bytes waits for
// an empty one. If a flusher is running the frame is its to send and send
// returns at once; otherwise the caller becomes the flusher, with no
// goroutine hop for a lone call, and writes transmissions until the queue
// is empty.
//
// The transmission reads body after send returns: a caller may reuse it
// once a reply arrives (the peer read the whole frame) or, on a failure,
// after awaitSent. Only the flusher sees a write error; it drops what is
// still queued and returns the error, and the caller fails the connection,
// which reaches every queued caller through its reply channel.
func (c *MuxConn) send(ctl []byte, body [][]byte) (uint64, error) {
	need := len(ctl) + bodySize(body)
	c.smu.Lock()
	// A non-empty queue has a flusher that will take it.
	for c.q.size > 0 && c.q.size+need > MaxPooledBuf && c.serr == nil {
		c.scond.Wait()
	}
	if c.serr != nil {
		err := c.serr
		c.smu.Unlock()
		return 0, err
	}
	c.q.add(ctl, body, need)
	seq := c.taken + 1
	if c.flushing {
		c.smu.Unlock()
		return seq, nil
	}
	c.flushing = true
	var err error
	for err == nil && c.q.size > 0 {
		q := c.q
		c.q, c.spare = c.spare, nil
		c.taken++
		c.scond.Broadcast() // the queue has room again; a transmission ended
		c.smu.Unlock()
		vecs := q.buffers()
		_, err = WriteBuffers(c.conn, &q.vecs)
		q.vecs = vecs // WriteBuffers consumes the list; reset clears all of it
		q.reset()
		c.smu.Lock()
		c.ended++
		c.spare = q
	}
	if err != nil {
		c.serr = fmt.Errorf("wire: write frame: %w", err)
		err = c.serr
		c.q.reset() // queued behind the failure: never sent
	}
	c.flushing = false
	c.scond.Broadcast()
	c.smu.Unlock()
	return seq, err
}

// awaitSent returns once transmission seq — the one carrying a caller's
// frame — has ended, or the connection has stopped sending (its queue was
// dropped after a failure). Until then a failed call may not return: the
// transmission can still be reading its body.
func (c *MuxConn) awaitSent(seq uint64) {
	c.smu.Lock()
	for c.flushing && c.ended < seq {
		c.scond.Wait()
	}
	c.smu.Unlock()
}

// Call sends one request and waits for its demultiplexed response. It is
// safe — and intended — to call concurrently; requests interleave on the
// wire and responses may arrive in any order. reqBody is sent from the
// caller's slice and not referenced after Call returns. Response-body
// ownership matches Conn.Call: the returned slice is pooled and passes to
// the caller.
func (c *MuxConn) Call(op string, reqMeta interface{}, reqBody []byte, respMeta interface{}) ([]byte, error) {
	body := [1][]byte{reqBody}
	return c.call(op, reqMeta, body[:], respMeta)
}

// call is Call with the request body in pieces, sent back to back.
func (c *MuxConn) call(op string, reqMeta interface{}, reqBody [][]byte, respMeta interface{}) ([]byte, error) {
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
	ch := replyChans.Get().(chan muxReply)
	c.calls[sid] = ch
	c.mu.Unlock()

	// Injectable transport failure (delay or error) before the request
	// leaves: it surfaces like a network send failing, but only to this
	// call — nothing reached the wire, so the connection is intact.
	if err := fpWireSend.Hit(); err != nil {
		c.release(sid, ch)
		return nil, fmt.Errorf("wire: send %s: %w", op, err)
	}
	fe := encPool.Get().(*frameEncoder)
	ctl, err := appendFrame(fe.buf[:0], &Msg{Op: op, Session: sid, Meta: meta}, bodySize(reqBody))
	if err != nil { // nothing reached the wire: the connection is intact
		encPool.Put(fe)
		c.release(sid, ch)
		return nil, err
	}
	seq, werr := c.send(ctl, reqBody)
	fe.buf = ctl[:0]
	encPool.Put(fe)
	if werr != nil {
		c.release(sid, ch)
		c.fail(werr)
		return nil, werr
	}

	reply := <-ch
	replyChans.Put(ch)
	if reply.err != nil {
		c.awaitSent(seq)
		return nil, reply.err
	}
	if reply.remote != "" {
		err = &RemoteError{Op: op, Msg: reply.remote}
	} else if respMeta != nil {
		err = UnmarshalMeta(reply.meta, respMeta)
	}
	reply.free(err != nil)
	if err != nil {
		return nil, err
	}
	return reply.body, nil
}

// free returns the reply's meta buffer to the pool, and its body too when
// the caller will not get it.
func (r *muxReply) free(body bool) {
	if r.meta != nil {
		PutBuf(r.meta)
	}
	if body && r.body != nil {
		PutBuf(r.body)
	}
}

// release forgets a call that will not wait for its reply — its request
// never reached the wire, or its send failed — and recycles its channel.
// A session still registered is dropped, so a late stray reply is
// discarded; one the reader or fail has already taken is owed its one
// reply, which release drains first.
func (c *MuxConn) release(sid uint64, ch chan muxReply) {
	c.mu.Lock()
	_, registered := c.calls[sid]
	delete(c.calls, sid)
	c.mu.Unlock()
	if !registered {
		r := <-ch
		r.free(true)
	}
	replyChans.Put(ch)
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
