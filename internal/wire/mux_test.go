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

// TestUntaggedFrameBackCompat pins the frame-level compatibility promise:
// a session-less frame's bytes are identical to the pre-mux encoding (no
// "sid" key), and frames from old peers — no sid, any field order —
// still decode.
func TestUntaggedFrameBackCompat(t *testing.T) {
	// Untagged frames must not leak the new header key.
	var buf bytes.Buffer
	if err := Write(&buf, &Msg{Op: "put", Meta: json.RawMessage(`{"x":1}`)}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("sid")) {
		t.Fatalf("untagged frame mentions sid: %q", buf.Bytes())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != 0 || got.Op != "put" {
		t.Fatalf("decoded %+v", got)
	}

	// A hand-built old-style header (as an old client would send) parses,
	// in both canonical order (fast path) and reordered (json fallback).
	for _, hdr := range []string{
		`{"op":"commit","meta":{"n":1}}`,
		`{"meta":{"n":1},"op":"commit"}`,
		`{ "op" : "commit" }`,
	} {
		frame := make([]byte, 12+len(hdr))
		frame[3] = byte(len(hdr))
		copy(frame[12:], hdr)
		m, err := Read(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("old frame %q: %v", hdr, err)
		}
		if m.Op != "commit" || m.Session != 0 {
			t.Fatalf("old frame %q decoded as %+v", hdr, m)
		}
	}

	// Tagged frames round-trip the session through both decode paths.
	buf.Reset()
	if err := Write(&buf, &Msg{Op: "alloc", Session: 7, Meta: json.RawMessage(`{"a":2}`)}); err != nil {
		t.Fatal(err)
	}
	got, err = Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Session != 7 || got.Op != "alloc" || string(got.Meta) != `{"a":2}` {
		t.Fatalf("tagged round trip decoded %+v", got)
	}
	reordered := `{"sid":9,"op":"alloc"}`
	frame := make([]byte, 12+len(reordered))
	frame[3] = byte(len(reordered))
	copy(frame[12:], reordered)
	m, err := Read(bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	if m.Session != 9 {
		t.Fatalf("fallback decoder lost sid: %+v", m)
	}

	// And an old-style serial client still works against the new server.
	_, addr := delayEchoServer(t, ServerConfig{})
	conn, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	body, err := conn.Call("echo", map[string]int{"delay_ms": 0}, []byte("old"), nil)
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
	if !pool.Shared() {
		t.Fatal("NewSharedPool not in shared mode")
	}

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
