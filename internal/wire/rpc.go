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

// fpWireSend injects transport failures into client-side sends (no-op
// unless armed; see internal/faultpoint). Grid tests use it to exercise
// the router's transient-failure retry path.
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

func (s *Server) serveConn(raw net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, raw)
		s.mu.Unlock()
		raw.Close()
	}()
	conn := raw
	if s.shaper != nil {
		conn = s.shaper(raw)
	}
	br := bufio.NewReaderSize(conn, connReadBufSize)
	// Tagged requests dispatch concurrently, so responses from dispatch
	// goroutines and the serial loop interleave on one socket: every frame
	// write serializes on wmu. sem bounds dispatched-but-unanswered tagged
	// requests; dispatched waits them out before the connection is torn
	// down so no goroutine writes to a closed-and-reused buffer.
	var (
		wmu        sync.Mutex
		dispatched sync.WaitGroup
	)
	sem := make(chan struct{}, s.inflight)
	defer dispatched.Wait()
	var msg Msg
	for {
		if err := ReadInto(br, &msg); err != nil {
			if errors.Is(err, ErrFrameVersion) {
				// Say why before hanging up: a peer that can read this
				// version's frames gets the typed error, not a bare EOF.
				wmu.Lock()
				_ = Write(conn, &Msg{Err: err.Error()})
				wmu.Unlock()
			}
			return // peer gone or protocol error; drop the connection
		}
		if msg.Session != 0 {
			select {
			case sem <- struct{}{}:
				// The dispatch goroutine takes over Meta and Body; detach
				// them so the next ReadInto cannot reuse their backing
				// arrays while the handler still reads them.
				m := msg
				msg.Meta, msg.Body = nil, nil
				dispatched.Add(1)
				go func() {
					defer dispatched.Done()
					defer func() { <-sem }()
					s.serveOne(conn, &wmu, &m)
				}()
				continue
			default:
				if s.overload != nil {
					// Budget exhausted: shed before touching the handler.
					if msg.Body != nil {
						PutBuf(msg.Body)
						msg.Body = nil
					}
					out := Msg{Op: msg.Op, Session: msg.Session, Err: s.overload(msg.Op).Error()}
					wmu.Lock()
					werr := Write(conn, &out)
					wmu.Unlock()
					if werr != nil {
						return
					}
					continue
				}
				// No shed policy: process in-line, which naturally stalls
				// the read loop until capacity frees (backpressure).
			}
		}
		if werr := s.serveOne(conn, &wmu, &msg); werr != nil {
			return
		}
	}
}

// serveOne runs the handler for one decoded request and writes its
// response frame (echoing the session tag), then recycles the request
// body. The write lock serializes frames from concurrent dispatches.
func (s *Server) serveOne(conn net.Conn, wmu *sync.Mutex, msg *Msg) error {
	req := Req{Op: msg.Op, Meta: msg.Meta, Body: msg.Body}
	hresp, herr := s.handler(&req)
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
	wmu.Lock()
	werr := Write(conn, &out)
	wmu.Unlock()
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

// Conn is a client connection carrying synchronous request/response calls.
// It is safe for concurrent use; calls serialize on the connection.
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
	// Injectable transport failure (delay or error) before the request
	// leaves: the fault surfaces exactly like a network send failing.
	if err := fpWireSend.Hit(); err != nil {
		return nil, fmt.Errorf("wire: send %s: %w", op, err)
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

// Pool maintains reusable connections per remote address. Broken
// connections are discarded on error; callers just retry the Call.
//
// A pool built with NewSharedPool runs in shared-connection (multiplexed)
// mode instead: a small fixed set of MuxConns per address carries every
// call concurrently, each tagged with a session ID. The Call signature is
// identical, so callers switch modes at construction only.
type Pool struct {
	shaper Shaper

	mu    sync.Mutex
	idle  map[string][]*Conn
	total int
	limit int

	mux      bool
	muxConns map[string][]*muxSlot
	rr       map[string]int
}

// NewPool returns a pool applying shaper to every dialed connection.
// perAddrLimit caps idle connections kept per address (not total
// concurrency).
func NewPool(shaper Shaper, perAddrLimit int) *Pool {
	if perAddrLimit <= 0 {
		perAddrLimit = 8
	}
	return &Pool{shaper: shaper, idle: make(map[string][]*Conn), limit: perAddrLimit}
}

// NewSharedPool returns a pool in shared-connection mode: perAddrConns
// multiplexed connections per address, all dialed at the address's first
// use, carry all calls, with session-tagged frames demultiplexed by a
// per-connection reader. This is the million-writer topology —
// concurrency no longer implies socket count.
func NewSharedPool(shaper Shaper, perAddrConns int) *Pool {
	if perAddrConns <= 0 {
		perAddrConns = 2
	}
	return &Pool{
		shaper:   shaper,
		idle:     make(map[string][]*Conn),
		limit:    perAddrConns,
		mux:      true,
		muxConns: make(map[string][]*muxSlot),
		rr:       make(map[string]int),
	}
}

// Shared reports whether the pool runs in shared-connection mode.
func (p *Pool) Shared() bool { return p.mux }

// Call performs one RPC against addr using a pooled connection. On
// transport errors the connection is discarded and the call retried once on
// a fresh connection. Response-body ownership matches Conn.Call.
func (p *Pool) Call(addr, op string, reqMeta interface{}, reqBody []byte, respMeta interface{}) ([]byte, error) {
	if p.mux {
		return p.muxCall(addr, op, reqMeta, reqBody, respMeta)
	}
	for attempt := 0; ; attempt++ {
		conn, fresh, err := p.get(addr)
		if err != nil {
			return nil, err
		}
		body, err := conn.Call(op, reqMeta, reqBody, respMeta)
		if err == nil {
			p.put(addr, conn)
			return body, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			// Remote errors are application-level; the transport
			// completed the exchange, so the connection is reusable.
			p.put(addr, conn)
			return nil, err
		}
		conn.Close()
		if fresh || attempt >= 1 {
			return nil, err
		}
		// A stale pooled connection may have been closed by the peer;
		// retry once on a fresh dial.
	}
}

func (p *Pool) get(addr string) (conn *Conn, fresh bool, err error) {
	p.mu.Lock()
	conns := p.idle[addr]
	if len(conns) > 0 {
		conn = conns[len(conns)-1]
		p.idle[addr] = conns[:len(conns)-1]
		p.mu.Unlock()
		return conn, false, nil
	}
	p.mu.Unlock()
	conn, err = Dial(addr, p.shaper)
	if err != nil {
		return nil, true, err
	}
	return conn, true, nil
}

// muxCall routes one RPC over a shared multiplexed connection, retrying
// once on a fresh connection when a pooled one turns out broken. Remote
// errors — including retry-after sheds — are answers, not transport
// faults, and return immediately.
func (p *Pool) muxCall(addr, op string, reqMeta interface{}, reqBody []byte, respMeta interface{}) ([]byte, error) {
	for attempt := 0; ; attempt++ {
		mc, fresh, err := p.muxGet(addr)
		if err != nil {
			return nil, err
		}
		body, err := mc.Call(op, reqMeta, reqBody, respMeta)
		if err == nil {
			return body, nil
		}
		var remote *RemoteError
		if errors.As(err, &remote) {
			return nil, err
		}
		p.muxEvict(addr, mc)
		if fresh || attempt >= 1 {
			return nil, err
		}
	}
}

// muxSlot is one of an address's shared-connection slots. Slots are
// reserved under the pool lock before their dials start, so the
// per-address budget counts connections still being established:
// concurrent first callers wait on the reserved slots instead of each
// dialing a socket of their own. mc and err are written once, under the
// pool lock, just before ready closes.
type muxSlot struct {
	ready chan struct{}
	mc    *MuxConn
	err   error
}

// muxGet picks a shared connection for addr round-robin. The caller that
// finds the address's budget short reserves every missing slot and dials
// them all before its own call proceeds, so an address's connections are
// established together at first use (or together replaced after a
// failure) rather than one per early call; a caller handed a slot whose
// dial is still in flight waits for it and shares its outcome.
func (p *Pool) muxGet(addr string) (mc *MuxConn, fresh bool, err error) {
	p.mu.Lock()
	if p.muxConns == nil { // pool closed
		p.mu.Unlock()
		return nil, true, core.ErrClosed
	}
	// Prune broken connections eagerly so the budget refills with live
	// ones rather than round-robining onto known-dead sockets.
	slots := p.muxConns[addr]
	live := slots[:0]
	for _, s := range slots {
		if s.mc != nil && s.mc.broken() {
			s.mc.Close()
			continue
		}
		live = append(live, s)
	}
	var mine []*muxSlot
	for len(live) < p.limit {
		s := &muxSlot{ready: make(chan struct{})}
		live = append(live, s)
		mine = append(mine, s)
	}
	p.muxConns[addr] = live
	if len(mine) == 0 {
		i := p.rr[addr] % len(live)
		p.rr[addr] = i + 1
		s := live[i]
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
		if err == nil && p.muxConns == nil { // pool closed while dialing
			conn.Close()
			conn, err = nil, core.ErrClosed
		}
		if err != nil {
			p.muxDrop(addr, s)
		}
		s.mc, s.err = conn, err
		close(s.ready)
		p.mu.Unlock()
	}
	return mine[0].mc, true, mine[0].err
}

// muxDrop removes slot s from addr's set. The caller holds p.mu.
func (p *Pool) muxDrop(addr string, s *muxSlot) {
	slots := p.muxConns[addr]
	for i, c := range slots {
		if c == s {
			p.muxConns[addr] = append(slots[:i], slots[i+1:]...)
			return
		}
	}
}

// muxEvict drops a broken shared connection from the per-address set.
func (p *Pool) muxEvict(addr string, mc *MuxConn) {
	p.mu.Lock()
	for _, s := range p.muxConns[addr] {
		if s.mc == mc {
			p.muxDrop(addr, s)
			break
		}
	}
	p.mu.Unlock()
	mc.Close()
}

func (p *Pool) put(addr string, conn *Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.idle[addr]) >= p.limit {
		conn.Close()
		return
	}
	p.idle[addr] = append(p.idle[addr], conn)
}

// Close closes all idle and shared connections.
func (p *Pool) Close() {
	p.mu.Lock()
	for _, conns := range p.idle {
		for _, c := range conns {
			c.Close()
		}
	}
	p.idle = make(map[string][]*Conn)
	shared := p.muxConns
	if p.mux {
		p.muxConns = nil // reject post-Close dials in muxGet
	}
	var open []*MuxConn
	for _, slots := range shared {
		for _, s := range slots {
			// A slot still dialing has no connection yet; its dialer sees
			// the closed pool under the lock and closes its own.
			if s.mc != nil {
				open = append(open, s.mc)
			}
		}
	}
	p.mu.Unlock()
	for _, mc := range open {
		mc.Close()
	}
}

// keep RemoteError usable with errors.As in this package's own retry logic.
var _ error = (*RemoteError)(nil)
