package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
)

// fpWireSend injects transport failures into MuxConn sends, the one client
// call path (no-op unless armed; see internal/faultpoint). Grid tests use
// it to exercise the router's transient-failure retry path.
var fpWireSend = faultpoint.Register("wire.send")

// Shaper optionally wraps an accepted or dialed connection with traffic
// shaping (device models). A nil Shaper leaves connections unshaped.
type Shaper func(net.Conn) net.Conn

// connReadBufSize is the bufio read buffer applied to every connection so a
// frame's prefix+header reads don't each cost a syscall; bulk bodies larger
// than the buffer bypass it and read straight into their pooled buffer.
const connReadBufSize = 32 << 10

// Req is one inbound request. Meta and Body are backed by buffers owned by
// the server: they are valid until the response frame has been written,
// after which the server recycles them — a handler that needs the bytes
// past its return copies them.
type Req struct {
	Op   string
	Meta []byte
	Body []byte
}

// Resp is a handler's reply.
type Resp struct {
	// Meta is marshalled into the response frame's metadata (nil omits it).
	Meta interface{}
	// Body is the bulk payload. It may alias the request body (the frame
	// is written before the request buffer is recycled).
	Body []byte
	// Recycle hands Body back to the wire buffer pool once the frame has
	// been written. Set it only for pool-backed buffers the handler owns —
	// never for a Body aliasing the request body or a store-internal slice.
	Recycle bool
}

// Handler processes one request. Returning an error sends it to the peer
// as a string; sentinel errors from package core survive the round trip
// (see RemoteError.Unwrap).
type Handler func(req *Req) (Resp, error)

// DefaultConnInflight is the per-connection cap on concurrently dispatched
// session-tagged requests when ServerConfig.MaxConnInflight is zero.
const DefaultConnInflight = 64

// ServerConfig parameterizes a Server beyond the handler: traffic shaping,
// the per-connection inflight bound for multiplexed sessions, and the
// overload hook that turns an over-budget frame into a typed rejection.
type ServerConfig struct {
	// Handler processes each request (required).
	Handler Handler
	// Shaper optionally wraps accepted connections (device models).
	Shaper Shaper
	// MaxConnInflight caps how many session-tagged requests one connection
	// may have dispatched concurrently. Zero means DefaultConnInflight.
	// Untagged requests are always serial and never counted.
	MaxConnInflight int
	// Overload, when non-nil, is consulted for a tagged frame arriving with
	// the inflight budget exhausted; its error is sent to the peer as the
	// rejection (typically a core.ErrRetryAfter). When nil, over-budget
	// frames fall back to serial in-order processing instead of shedding.
	Overload func(op string) error
}

// Server accepts framed-RPC connections and dispatches requests to a
// Handler. Untagged requests on a connection are processed strictly in
// arrival order, one at a time (the protocol of Conn); session-tagged
// requests dispatch concurrently up to MaxConnInflight, with responses
// echoing the session ID so the client-side mux can demultiplex them.
type Server struct {
	ln       net.Listener
	handler  Handler
	shaper   Shaper
	inflight int
	overload func(op string) error

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts serving on ln. It returns immediately; the accept loop
// runs until Close.
func NewServer(ln net.Listener, handler Handler, shaper Shaper) *Server {
	return NewServerWithConfig(ln, ServerConfig{Handler: handler, Shaper: shaper})
}

// NewServerWithConfig starts serving on ln with explicit server options.
func NewServerWithConfig(ln net.Listener, cfg ServerConfig) *Server {
	if cfg.MaxConnInflight <= 0 {
		cfg.MaxConnInflight = DefaultConnInflight
	}
	s := &Server{
		ln:       ln,
		handler:  cfg.Handler,
		shaper:   cfg.Shaper,
		inflight: cfg.MaxConnInflight,
		overload: cfg.Overload,
		conns:    make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes all connections and waits for the serving
// goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// serverConn is one accepted connection's state shared by its read loop
// and its tagged dispatches.
type serverConn struct {
	s    *Server
	conn net.Conn
	// Tagged requests dispatch concurrently, so responses from dispatch
	// goroutines and the serial loop interleave on one socket: every frame
	// write serializes on wmu. sem bounds dispatched-but-unanswered tagged
	// requests; dispatched waits them out before the connection is torn
	// down so no goroutine writes to a closed-and-reused buffer.
	wmu        sync.Mutex
	sem        chan struct{}
	dispatched sync.WaitGroup
}

// taggedReq is one tagged request handed from a connection's read loop to
// its dispatch goroutine. Requests are pooled, each with its goroutine
// body bound once, so a dispatch allocates neither a request nor a
// closure; the read loop swaps its meta buffer with the request's instead
// of giving its own away.
type taggedReq struct {
	sc  *serverConn
	msg Msg
	run func()
}

var taggedReqs sync.Pool

func init() {
	// Set here, not in the declaration: serve puts t back in the pool.
	taggedReqs.New = func() interface{} {
		t := new(taggedReq)
		t.run = t.serve
		return t
	}
}

// serve handles the request on its own goroutine and recycles t.
func (t *taggedReq) serve() {
	sc := t.sc
	sc.serveOne(&t.msg)
	t.sc = nil
	t.msg.Body = nil
	taggedReqs.Put(t)
	<-sc.sem
	sc.dispatched.Done()
}

func (s *Server) serveConn(raw net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
		raw.Close()
	}()
	sc := &serverConn{s: s, conn: raw, sem: make(chan struct{}, s.inflight)}
	if s.shaper != nil {
		sc.conn = s.shaper(raw)
	}
	conn := sc.conn
	br := bufio.NewReaderSize(conn, connReadBufSize)
	defer sc.dispatched.Wait()
	var msg Msg
	for {
		if err := ReadInto(br, &msg); err != nil {
			if errors.Is(err, ErrFrameVersion) {
				// Say why before hanging up: a peer that can read this
				// version's frames gets the typed error, not a bare EOF.
				sc.wmu.Lock()
				_ = Write(conn, &Msg{Err: err.Error()})
				sc.wmu.Unlock()
			}
			return // peer gone or protocol error; drop the connection
		}
		if msg.Session != 0 {
			select {
			case sc.sem <- struct{}{}:
				// The dispatch takes over Meta and Body; swap in its
				// spare meta buffer so the next ReadInto cannot reuse
				// their backing arrays while the handler still reads them.
				t := taggedReqs.Get().(*taggedReq)
				t.sc = sc
				t.msg.Meta, msg.Meta = msg.Meta, t.msg.Meta[:0]
				t.msg.Op, t.msg.Session, t.msg.Body = msg.Op, msg.Session, msg.Body
				msg.Body = nil
				sc.dispatched.Add(1)
				go t.run()
				continue
			default:
				if s.overload != nil {
					// Budget exhausted: shed before touching the handler.
					if msg.Body != nil {
						PutBuf(msg.Body)
						msg.Body = nil
					}
					out := Msg{Op: msg.Op, Session: msg.Session, Err: s.overload(msg.Op).Error()}
					sc.wmu.Lock()
					werr := Write(conn, &out)
					sc.wmu.Unlock()
					if werr != nil {
						return
					}
					continue
				}
				// No shed policy: process in-line, which naturally stalls
				// the read loop until capacity frees (backpressure).
			}
		}
		if werr := sc.serveOne(&msg); werr != nil {
			return
		}
	}
}

// serveOne runs the handler for one decoded request and writes its
// response frame (echoing the session tag), then recycles the request
// body. The write lock serializes frames from concurrent dispatches.
func (sc *serverConn) serveOne(msg *Msg) error {
	req := Req{Op: msg.Op, Meta: msg.Meta, Body: msg.Body}
	hresp, herr := sc.s.handler(&req)
	out := Msg{Op: msg.Op, Session: msg.Session}
	if herr != nil {
		out.Err = herr.Error()
	} else {
		if hresp.Meta != nil {
			raw, merr := MarshalMeta(hresp.Meta)
			if merr != nil {
				out.Err = merr.Error()
			} else {
				out.Meta = raw
			}
		}
		if out.Err == "" {
			out.Body = hresp.Body
		}
	}
	sc.wmu.Lock()
	werr := Write(sc.conn, &out)
	sc.wmu.Unlock()
	if msg.Body != nil {
		PutBuf(msg.Body)
	}
	if hresp.Recycle && hresp.Body != nil {
		PutBuf(hresp.Body)
	}
	return werr
}

// RemoteError is an error reported by a peer over the wire.
type RemoteError struct {
	Op  string
	Msg string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return fmt.Sprintf("remote %s: %s", e.Op, e.Msg) }

// Unwrap maps well-known remote error strings back to the core sentinel
// errors so errors.Is works across the wire. Admission-control rejections
// are parsed back into a typed core.ErrRetryAfter (before sentinel
// matching, so the server's delay hint survives the round trip).
func (e *RemoteError) Unwrap() error {
	if ra, ok := core.ParseRetryAfter(e.Msg); ok {
		return ra
	}
	for _, sentinel := range []error{
		core.ErrNotFound, core.ErrNoSpace, core.ErrNoBenefactors,
		core.ErrNotCommitted, core.ErrAlreadyCommitted, core.ErrIntegrity,
		core.ErrBenefactorDown, core.ErrClosed, core.ErrQuorum,
		core.ErrNotOwner, core.ErrEpochMismatch,
	} {
		if strings.Contains(e.Msg, sentinel.Error()) {
			return sentinel
		}
	}
	return nil
}

// Conn is a client connection carrying synchronous request/response calls
// in untagged frames. It is safe for concurrent use; calls serialize on
// the connection. stdchk components call through a Pool instead; the
// bench module and tests dial Conns.
type Conn struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader
	resp Msg // reused response frame; Body ownership passes to the caller
}

// Dial connects to addr and applies the optional shaper.
func Dial(addr string, shaper Shaper) (*Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	conn := raw
	if shaper != nil {
		conn = shaper(raw)
	}
	return &Conn{conn: conn, br: bufio.NewReaderSize(conn, connReadBufSize)}, nil
}

// Call sends one request and waits for its response. respMeta, when
// non-nil, receives the decoded response metadata. The returned bytes are
// the response body; it is backed by a pooled buffer whose ownership
// passes to the caller (return it with PutBuf once consumed, or let the GC
// take it).
func (c *Conn) Call(op string, reqMeta interface{}, reqBody []byte, respMeta interface{}) ([]byte, error) {
	meta, err := MarshalMeta(reqMeta)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, core.ErrClosed
	}
	if err := Write(c.conn, &Msg{Op: op, Meta: meta, Body: reqBody}); err != nil {
		return nil, err
	}
	if err := ReadInto(c.br, &c.resp); err != nil {
		return nil, err
	}
	if c.resp.Err != "" {
		if c.resp.Body != nil {
			PutBuf(c.resp.Body)
		}
		return nil, &RemoteError{Op: op, Msg: c.resp.Err}
	}
	if respMeta != nil {
		if err := UnmarshalMeta(c.resp.Meta, respMeta); err != nil {
			if c.resp.Body != nil {
				PutBuf(c.resp.Body)
			}
			return nil, err
		}
	}
	return c.resp.Body, nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// PeerConns is the number of multiplexed connections every stdchk pool —
// a client's data pool, its Router, a manager's donor pool, a donor's
// replicate pool — keeps per peer: two, so one keeps the pipe full with
// bulk bodies while the other lets a small request frame interleave
// instead of queueing behind a 1 MB chunk mid-flight. A peer's dispatch
// budget for one pool is PeerConns × DefaultConnInflight tagged frames.
const PeerConns = 2

// Pool shares a small fixed set of multiplexed connections (MuxConns) per
// remote address: every call to that address rides one of them,
// concurrently with the others, tagged with a session ID. The set is
// dialed together at the address's first use and a broken connection is
// replaced together with any other missing ones, so a peer sees the same
// few sockets however many calls are in flight.
//
// Calls after Close fail with core.ErrClosed without dialing; a call in
// flight at Close fails with core.ErrClosed.
type Pool struct {
	shaper Shaper
	conns  int // connections per address

	mu     sync.Mutex
	closed bool
	peers  map[string]*peer
}

// peer is one address's connection set and its round-robin cursor.
type peer struct {
	slots []*muxSlot
	next  int
}

// NewPool returns a pool of perAddrConns multiplexed connections per
// address (PeerConns when perAddrConns ≤ 0), applying shaper to every
// connection it dials.
func NewPool(shaper Shaper, perAddrConns int) *Pool {
	if perAddrConns <= 0 {
		perAddrConns = PeerConns
	}
	return &Pool{shaper: shaper, conns: perAddrConns, peers: make(map[string]*peer)}
}

// Call performs one RPC against addr over a shared connection. Response-
// body ownership matches Conn.Call.
func (p *Pool) Call(addr, op string, reqMeta interface{}, reqBody []byte, respMeta interface{}) ([]byte, error) {
	body := [1][]byte{reqBody}
	return p.CallPieces(addr, op, reqMeta, body[:], respMeta)
}

// CallPieces is Call with a request body in pieces: the frame's body is the
// pieces back to back, sent from the caller's slices without gathering
// them. The pieces are not referenced after CallPieces returns.
//
// A call whose connection breaks under it is retried once, on a fresh
// connection, unless that connection was itself just dialed: a pooled one
// may have been closed by a restarted peer. Every other error returns
// as it is, and leaves the connection — and the calls it carries — alone:
// a remote error (a retry-after shed included) is an answer, and a reply
// meta that does not decode, a frame over the limits or an injected send
// fault fail this call only.
func (p *Pool) CallPieces(addr, op string, reqMeta interface{}, reqBody [][]byte, respMeta interface{}) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		mc, fresh, err := p.get(addr)
		if err != nil {
			return nil, err
		}
		body, err := mc.call(op, reqMeta, reqBody, respMeta)
		// A broken connection stays in the set until get prunes it,
		// at the retry or the next call.
		if err == nil || !mc.broken() || fresh || attempt >= 1 {
			return body, err
		}
	}
}

// muxSlot is one of an address's connection slots. Slots are reserved
// under the pool lock before their dials start, so the per-address budget
// counts connections still being established: concurrent first callers
// wait on the reserved slots instead of each dialing a socket of their
// own. mc and err are written once, under the pool lock, just before
// ready closes.
type muxSlot struct {
	ready chan struct{}
	mc    *MuxConn
	err   error
}

// get picks a connection for addr round-robin. The caller that finds the
// address's set short reserves every missing slot and dials them all
// before its own call proceeds, so an address's connections are
// established together at first use (or together replaced after a
// failure) rather than one per early call; a caller handed a slot whose
// dial is still in flight waits for it and shares its outcome.
func (p *Pool) get(addr string) (mc *MuxConn, fresh bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, true, core.ErrClosed
	}
	pr := p.peers[addr]
	if pr == nil {
		pr = &peer{}
		p.peers[addr] = pr
	}
	// Prune broken connections eagerly so the set refills with live ones
	// rather than round-robining onto known-dead sockets.
	live := pr.slots[:0]
	for _, s := range pr.slots {
		if s.mc != nil && s.mc.broken() {
			s.mc.Close()
			continue
		}
		live = append(live, s)
	}
	var mine []*muxSlot
	for len(live) < p.conns {
		s := &muxSlot{ready: make(chan struct{})}
		live = append(live, s)
		mine = append(mine, s)
	}
	pr.slots = live
	if len(mine) == 0 {
		s := live[pr.next%len(live)]
		pr.next++
		p.mu.Unlock()
		<-s.ready
		return s.mc, false, s.err
	}
	p.mu.Unlock()

	for _, s := range mine {
		var conn *MuxConn
		if err == nil { // after one failed dial the rest fail with it
			conn, err = DialMux(addr, p.shaper)
		}
		p.mu.Lock()
		if err == nil && p.closed { // pool closed while dialing
			conn.Close()
			conn, err = nil, core.ErrClosed
		}
		if err != nil {
			pr.drop(s)
		}
		s.mc, s.err = conn, err
		close(s.ready)
		p.mu.Unlock()
	}
	return mine[0].mc, true, mine[0].err
}

// drop removes slot s from the set. The caller holds the pool lock.
func (pr *peer) drop(s *muxSlot) {
	for i, c := range pr.slots {
		if c == s {
			pr.slots = append(pr.slots[:i], pr.slots[i+1:]...)
			return
		}
	}
}

// Close closes every connection; later calls fail with core.ErrClosed.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	var open []*MuxConn
	for _, pr := range p.peers {
		for _, s := range pr.slots {
			// A slot still dialing has no connection yet; its dialer sees
			// the closed pool under the lock and closes its own.
			if s.mc != nil {
				open = append(open, s.mc)
			}
		}
	}
	p.peers = nil
	p.mu.Unlock()
	for _, mc := range open {
		mc.Close()
	}
}
