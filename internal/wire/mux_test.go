package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/core"
)

// delayEchoServer echoes body+meta like echoServer, but sleeps for the
// duration named in the request meta first — so concurrent responses
// complete (and hit the wire) out of request order.
func delayEchoServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Handler == nil {
		cfg.Handler = func(req *Req) (Resp, error) {
			var m struct {
				DelayMs int `json:"delay_ms"`
			}
			if err := UnmarshalMeta(req.Meta, &m); err != nil {
				return Resp{}, err
			}
			if m.DelayMs > 0 {
				time.Sleep(time.Duration(m.DelayMs) * time.Millisecond)
			}
			return Resp{Meta: json.RawMessage(req.Meta), Body: req.Body}, nil
		}
	}
	srv := NewServerWithConfig(ln, cfg)
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

// TestMuxDemuxInterleaved is the demux correctness test: many concurrent
// sessions on ONE connection, server-side delays inverted so the first
// request answers last, every reply must still land with its own caller.
func TestMuxDemuxInterleaved(t *testing.T) {
	_, addr := delayEchoServer(t, ServerConfig{})
	mc, err := DialMux(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	const n = 24
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Earlier goroutines sleep longer: responses come back in
			// roughly reverse order of requests.
			meta := map[string]int{"delay_ms": (n - i) % 8 * 3, "tag": i}
			payload := []byte(fmt.Sprintf("payload-%d", i))
			var respMeta map[string]int
			body, err := mc.Call("echo", meta, payload, &respMeta)
			if err != nil {
				errs <- err
				return
			}
			if respMeta["tag"] != i {
				errs <- fmt.Errorf("session %d got meta for %d", i, respMeta["tag"])
				return
			}
			if !bytes.Equal(body, payload) {
				errs <- fmt.Errorf("session %d got body %q", i, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestUntaggedFrameBackCompat pins what is left of the untagged promise
// (invariant 6): frames without a session tag are dispatched strictly one
// at a time, in arrival order, even when a peer pipelines them — the
// protocol of Conn, which the bench module and the manager pool dial —
// while tagged frames on the same server overlap.
func TestUntaggedFrameBackCompat(t *testing.T) {
	var running, peak atomic.Int32
	var mu sync.Mutex
	var order []string
	_, addr := delayEchoServer(t, ServerConfig{Handler: func(req *Req) (Resp, error) {
		n := running.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		mu.Lock()
		order = append(order, string(req.Body))
		mu.Unlock()
		time.Sleep(5 * time.Millisecond)
		running.Add(-1)
		return Resp{Body: req.Body}, nil
	}})

	// Eight untagged frames written back to back before any reply is read.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	const n = 8
	for i := 0; i < n; i++ {
		if err := Write(raw, &Msg{Op: "echo", Body: []byte(fmt.Sprint(i))}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		m, err := Read(raw)
		if err != nil {
			t.Fatal(err)
		}
		if m.Session != 0 || string(m.Body) != fmt.Sprint(i) {
			t.Fatalf("reply %d: session %d body %q", i, m.Session, m.Body)
		}
	}
	if peak.Load() != 1 {
		t.Fatalf("%d untagged requests ran at once, want 1", peak.Load())
	}
	mu.Lock()
	got := strings.Join(order, "")
	mu.Unlock()
	if got != "01234567" {
		t.Fatalf("untagged dispatch order %q", got)
	}

	// The same server overlaps tagged requests.
	mc, err := DialMux(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := mc.Call("echo", nil, []byte("t"), nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak.Load() < 2 {
		t.Fatal("tagged requests never overlapped")
	}

	// And a serial client works against the multiplexing server.
	conn, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := conn.Call("echo", nil, []byte("old"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "old" {
		t.Fatalf("serial client against mux server got %q", body)
	}
}

// TestSharedPoolConcurrent drives many goroutines through a shared pool
// (one mux connection) and checks every call routes correctly.
func TestSharedPoolConcurrent(t *testing.T) {
	_, addr := delayEchoServer(t, ServerConfig{})
	pool := NewSharedPool(nil, 1)
	defer pool.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("p%d", i))
			body, err := pool.Call(addr, "echo", map[string]int{"delay_ms": i % 4}, payload, nil)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(body, payload) {
				errs <- fmt.Errorf("call %d got %q", i, body)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// countingListener counts the connections a server accepted.
type countingListener struct {
	net.Listener
	accepted atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return c, err
}

// TestSharedPoolHoldsConnBudget releases 32 first callers at a cold
// 2-connection pool at once. The dial slot is reserved before the dial, so
// the server must see exactly the budget — not one socket (and one reader
// goroutine) per racing caller — and a later wave must reuse those two.
func TestSharedPoolHoldsConnBudget(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &countingListener{Listener: inner}
	srv := NewServer(ln, func(req *Req) (Resp, error) { return Resp{Body: req.Body}, nil }, nil)
	defer srv.Close()
	pool := NewSharedPool(nil, 2)
	defer pool.Close()

	for wave := 0; wave < 2; wave++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		errs := make(chan error, 32)
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				payload := []byte(fmt.Sprintf("p%d", i))
				body, err := pool.Call(srv.Addr(), "echo", nil, payload, nil)
				if err != nil {
					errs <- err
				} else if !bytes.Equal(body, payload) {
					errs <- fmt.Errorf("call %d got %q", i, body)
				}
			}(i)
		}
		close(start)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		if got := ln.accepted.Load(); got != 2 {
			t.Fatalf("wave %d: server accepted %d connections from a 2-connection pool", wave, got)
		}
	}
}

// TestSharedPoolFailedDialFreesSlot checks a refused dial does not leak
// its reserved slot: every concurrent caller gets the dial error, and once
// a server listens on the address the pool dials it.
func TestSharedPoolFailedDialFreesSlot(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close() // nothing listens here now
	pool := NewSharedPool(nil, 1)
	defer pool.Close()

	var wg sync.WaitGroup
	var failed atomic.Int64
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := pool.Call(addr, "echo", nil, nil, nil); err != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 8 {
		t.Fatalf("%d of 8 calls to a dead address failed", failed.Load())
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv := NewServer(ln2, func(req *Req) (Resp, error) { return Resp{Body: req.Body}, nil }, nil)
	defer srv.Close()
	if body, err := pool.Call(addr, "echo", nil, []byte("up"), nil); err != nil || string(body) != "up" {
		t.Fatalf("call after the address came up: %q, %v", body, err)
	}
}

// TestSharedPoolRedialsBrokenConn kills the server between calls; the
// pool must evict the dead mux connection and retry on a fresh dial.
func TestSharedPoolRedialsBrokenConn(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	handler := func(req *Req) (Resp, error) { return Resp{Body: req.Body}, nil }
	srv := NewServer(ln, handler, nil)
	addr := srv.Addr()

	pool := NewSharedPool(nil, 1)
	defer pool.Close()
	if _, err := pool.Call(addr, "echo", nil, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	// Restart on the same address so the retry's fresh dial can land.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := NewServer(ln2, handler, nil)
	defer srv2.Close()
	body, err := pool.Call(addr, "echo", nil, []byte("b"), nil)
	if err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	if string(body) != "b" {
		t.Fatalf("got %q", body)
	}
}

// TestServerShedsTaggedOverload saturates a MaxConnInflight=1 server with
// a slow handler: the second tagged request must be rejected with a typed
// retry-after carrying the server's delay hint — not queued, not hung.
func TestServerShedsTaggedOverload(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	cfg := ServerConfig{
		Handler: func(req *Req) (Resp, error) {
			started <- struct{}{}
			<-release
			return Resp{Body: req.Body}, nil
		},
		MaxConnInflight: 1,
		Overload: func(op string) error {
			return core.ErrRetryAfter{Delay: 5 * time.Millisecond}
		},
	}
	_, addr := delayEchoServer(t, cfg)
	mc, err := DialMux(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	firstDone := make(chan error, 1)
	go func() {
		_, err := mc.Call("slow", nil, []byte("x"), nil)
		firstDone <- err
	}()
	<-started // the one inflight slot is now held

	// Second tagged call on the same connection: must shed immediately.
	_, err = mc.Call("slow", nil, nil, nil)
	var ra core.ErrRetryAfter
	if !errors.As(err, &ra) {
		t.Fatalf("want ErrRetryAfter, got %v", err)
	}
	if ra.Delay != 5*time.Millisecond {
		t.Fatalf("delay hint lost across the wire: %v", ra.Delay)
	}
	if !errors.Is(err, core.ErrRetryAfter{}) {
		t.Fatal("errors.Is class-match failed")
	}
	if !strings.Contains(err.Error(), "retry after") {
		t.Fatalf("unexpected message %q", err)
	}

	close(release)
	if err := <-firstDone; err != nil {
		t.Fatalf("admitted call failed: %v", err)
	}
}

// scriptedConn is a client-side connection wrapper that records every
// Write it is handed and can script the first two: the first blocks until
// gate is closed (so a test can queue calls behind a transmission that is
// "on the wire"), and the second fails when failSecond is set.
type scriptedConn struct {
	net.Conn
	gate       chan struct{} // nil: no Write blocks
	entered    chan struct{} // closed when the first Write has begun
	failSecond bool

	mu     sync.Mutex
	writes [][]byte // the slices as passed, not copies: identity matters
	stream []byte   // everything written, in order
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	n := len(c.writes)
	c.writes = append(c.writes, p)
	c.stream = append(c.stream, p...)
	c.mu.Unlock()
	if n == 0 && c.gate != nil {
		close(c.entered)
		<-c.gate
	}
	if n == 1 && c.failSecond {
		return 0, errors.New("link down")
	}
	return c.Conn.Write(p)
}

func (c *scriptedConn) recorded() (writes [][]byte, stream []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...), append([]byte(nil), c.stream...)
}

// dialScripted dials addr with sc wrapped around the socket.
func dialScripted(t *testing.T, addr string, sc *scriptedConn) *MuxConn {
	t.Helper()
	mc, err := DialMux(addr, func(raw net.Conn) net.Conn {
		sc.Conn = raw
		return sc
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mc.Close() })
	return mc
}

// awaitQueued waits until n frames sit in mc's transmit buffer.
func awaitQueued(t *testing.T, mc *MuxConn, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		mc.smu.Lock()
		frames, err := countFrames(mc.tx)
		mc.smu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if frames == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames queued, want %d", frames, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// countFrames decodes b as a run of whole frames.
func countFrames(b []byte) (int, error) {
	r := bytes.NewReader(b)
	for n := 0; ; n++ {
		if r.Len() == 0 {
			return n, nil
		}
		m, err := Read(r)
		if err != nil {
			return n, fmt.Errorf("frame %d: %w", n, err)
		}
		if m.Body != nil {
			PutBuf(m.Body)
		}
	}
}

// echoCall issues one tagged echo call and checks the reply is its own.
func echoCall(mc *MuxConn, tag int, payload []byte) error {
	var respMeta map[string]int
	body, err := mc.Call("echo", map[string]int{"tag": tag}, payload, &respMeta)
	if err != nil {
		return err
	}
	if respMeta["tag"] != tag {
		return fmt.Errorf("call %d got the reply for %d", tag, respMeta["tag"])
	}
	if !bytes.Equal(body, payload) {
		return fmt.Errorf("call %d got a %d-byte body back, sent %d", tag, len(body), len(payload))
	}
	return nil
}

// TestMuxCoalescesQueuedFrames holds one transmission on the wire while 16
// more calls arrive. They must leave as the next single transmission — not
// 16 more — with every frame intact and every reply at its own caller.
func TestMuxCoalescesQueuedFrames(t *testing.T) {
	_, addr := delayEchoServer(t, ServerConfig{})
	sc := &scriptedConn{gate: make(chan struct{}), entered: make(chan struct{})}
	mc := dialScripted(t, addr, sc)

	const queued = 16
	errs := make(chan error, queued+1)
	go func() { errs <- echoCall(mc, 0, []byte("first")) }()
	<-sc.entered
	for i := 1; i <= queued; i++ {
		go func(i int) { errs <- echoCall(mc, i, bytes.Repeat([]byte{byte(i)}, 100*i)) }(i)
	}
	awaitQueued(t, mc, queued)
	close(sc.gate)
	for i := 0; i <= queued; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	writes, stream := sc.recorded()
	if len(writes) > 3 {
		t.Fatalf("%d calls queued behind one transmission left in %d more; want at most 2", queued, len(writes)-1)
	}
	if frames, err := countFrames(stream); err != nil || frames != queued+1 {
		t.Fatalf("the socket carried %d whole frames (%v), want %d", frames, err, queued+1)
	}
}

// TestMuxLoneCallIsOneWrite: a call with nothing to wait behind sends its
// header and a 64 KB body as one transmission.
func TestMuxLoneCallIsOneWrite(t *testing.T) {
	_, addr := delayEchoServer(t, ServerConfig{})
	sc := &scriptedConn{}
	mc := dialScripted(t, addr, sc)
	if err := echoCall(mc, 1, bytes.Repeat([]byte("x"), 64<<10)); err != nil {
		t.Fatal(err)
	}
	if writes, _ := sc.recorded(); len(writes) != 1 {
		t.Fatalf("a lone header + 64 KB body took %d writes, want 1", len(writes))
	}
}

// TestMuxLargeBodyNotCopied: a body above the coalescing bound reaches the
// connection as the caller's own slice, behind a control part that also
// carries the small frame queued ahead of it.
func TestMuxLargeBodyNotCopied(t *testing.T) {
	_, addr := delayEchoServer(t, ServerConfig{})
	sc := &scriptedConn{gate: make(chan struct{}), entered: make(chan struct{})}
	mc := dialScripted(t, addr, sc)

	big := bytes.Repeat([]byte("chunk---"), (1<<20)/8)
	errs := make(chan error, 3)
	go func() { errs <- echoCall(mc, 0, []byte("first")) }()
	<-sc.entered
	go func() { errs <- echoCall(mc, 1, []byte("small")) }()
	awaitQueued(t, mc, 1)
	go func() { errs <- echoCall(mc, 2, big) }()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		mc.smu.Lock()
		waiting := mc.solo
		mc.smu.Unlock()
		if waiting == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the large-body call never queued for the socket")
		}
	}
	close(sc.gate)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	writes, stream := sc.recorded()
	if len(writes) != 3 {
		t.Fatalf("%d writes, want 3: the first call, then [queued small frame + large header] and the large body", len(writes))
	}
	if body := writes[2]; len(body) != len(big) || &body[0] != &big[0] {
		t.Fatalf("the 1 MB body reached the connection as a %d-byte copy, not the caller's slice", len(body))
	}
	if frames, err := countFrames(stream); err != nil || frames != 3 {
		t.Fatalf("the socket carried %d whole frames (%v), want 3", frames, err)
	}
}

// TestMuxSendFailureFailsEveryQueuedCall fails the transmission that
// carries eight queued calls. Every one of them — and the call whose
// goroutine was flushing — must return the error rather than hang, and a
// shared pool must replace the connection.
func TestMuxSendFailureFailsEveryQueuedCall(t *testing.T) {
	_, addr := delayEchoServer(t, ServerConfig{})
	sc := &scriptedConn{gate: make(chan struct{}), entered: make(chan struct{}), failSecond: true}
	var dials atomic.Int64
	pool := NewSharedPool(func(raw net.Conn) net.Conn {
		if dials.Add(1) == 1 {
			sc.Conn = raw
			return sc
		}
		return raw
	}, 1)
	defer pool.Close()
	mc, _, err := pool.muxGet(addr)
	if err != nil {
		t.Fatal(err)
	}

	const queued = 8
	errs := make(chan error, queued+1)
	go func() { errs <- echoCall(mc, 0, []byte("first")) }()
	<-sc.entered
	for i := 1; i <= queued; i++ {
		go func(i int) { errs <- echoCall(mc, i, []byte("queued")) }(i)
	}
	awaitQueued(t, mc, queued)
	close(sc.gate)
	for i := 0; i <= queued; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "link down") {
				t.Fatalf("a call on the failed connection returned %v, want the send error", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls still hang after the send failed", queued+1-i, queued+1)
		}
	}
	if !mc.broken() {
		t.Fatal("the connection survived a failed transmission")
	}
	if err := echoCall(mc, 99, nil); err == nil {
		t.Fatal("a call after the send failure succeeded")
	}

	// The pool notices on the next call: new socket, same address.
	if body, err := pool.Call(addr, "echo", nil, []byte("again"), nil); err != nil || string(body) != "again" {
		t.Fatalf("pool call after the failure: %q, %v", body, err)
	}
	if dials.Load() != 2 {
		t.Fatalf("pool dialed %d connections, want the broken one replaced once", dials.Load())
	}
}

// TestMuxMixedBodiesUnderBackpressure drives small, coalesced and large
// bodies through one slow connection at once, so the transmit buffer
// fills (callers wait for room) while large bodies queue for the socket.
// Every frame must arrive whole and every reply reach its caller.
func TestMuxMixedBodiesUnderBackpressure(t *testing.T) {
	_, addr := delayEchoServer(t, ServerConfig{})
	mc, err := DialMux(addr, func(raw net.Conn) net.Conn { return &slowConn{Conn: raw} })
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()

	sizes := []int{0, 900, 100 << 10, maxCoalescedBody, maxCoalescedBody + 1, 1 << 20}
	var wg sync.WaitGroup
	errs := make(chan error, 48)
	for i := 0; i < 48; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				if err := echoCall(mc, i, bytes.Repeat([]byte{byte(i)}, sizes[(i+round)%len(sizes)])); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// slowConn makes every transmission take long enough for calls to pile up
// behind it.
type slowConn struct{ net.Conn }

func (c *slowConn) Write(p []byte) (int, error) {
	time.Sleep(200 * time.Microsecond)
	return c.Conn.Write(p)
}
