package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"testing/quick"
	"time"

	"stdchk/internal/core"
)

func TestMsgRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		msg  Msg
	}{
		{"op only", Msg{Op: "ping"}},
		{"with meta", Msg{Op: "put", Meta: json.RawMessage(`{"x":1}`)}},
		{"with body", Msg{Op: "put", Body: []byte("chunk data")}},
		{"error response", Msg{Op: "get", Err: "not found"}},
		{"everything", Msg{Op: "x", Err: "e", Session: 7, Meta: json.RawMessage(`[1,2]`), Body: []byte{0, 1, 2}}},
		{"empty body slice", Msg{Op: "x", Body: []byte{}}},
		{"empty op", Msg{Session: 1}},
		{"widest sid", Msg{Op: "x", Session: math.MaxUint64}},
		{"binary meta", Msg{Op: "b.put", Meta: []byte{0, 0xff, '{', 2}}},
		{"err with quotes and control bytes", Msg{Op: "get", Err: "a \"quoted\"\\ line\nwith\ttabs, \x00 and \xff\xfe"}},
		{"long err with meta", Msg{Op: "get", Session: 300, Err: strings.Repeat("e", 100<<10), Meta: []byte("m")}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Write(&buf, &tt.msg); err != nil {
				t.Fatal(err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Op != tt.msg.Op || got.Err != tt.msg.Err || got.Session != tt.msg.Session {
				t.Fatalf("got %+v, want %+v", got, tt.msg)
			}
			if string(got.Meta) != string(tt.msg.Meta) {
				t.Fatalf("meta %q, want %q", got.Meta, tt.msg.Meta)
			}
			if len(tt.msg.Body) > 0 && !bytes.Equal(got.Body, tt.msg.Body) {
				t.Fatalf("body %q, want %q", got.Body, tt.msg.Body)
			}
		})
	}
}

func TestMsgRoundTripQuick(t *testing.T) {
	f := func(op string, body []byte) bool {
		var buf bytes.Buffer
		if err := Write(&buf, &Msg{Op: op, Body: body}); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Op != op {
			return false
		}
		return bytes.Equal(got.Body, body) || (len(body) == 0 && len(got.Body) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsOversizedFrames(t *testing.T) {
	var buf bytes.Buffer
	// Forge a prefix claiming a huge header.
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0})
	if _, err := Read(&buf); !errors.Is(err, ErrHeaderTooLarge) {
		t.Fatalf("got %v, want ErrHeaderTooLarge", err)
	}
	buf.Reset()
	// Tiny header, huge body.
	buf.Write([]byte{0, 0, 0, 2})
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	buf.WriteString("{}")
	if _, err := Read(&buf); !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("got %v, want ErrBodyTooLarge", err)
	}
}

// jsonEraFrame is a frame as the parent of the binary header wrote it: the
// same 12-byte prefix in front of a JSON object.
func jsonEraFrame(hdr string) []byte {
	frame := make([]byte, 12, 12+len(hdr))
	binary.BigEndian.PutUint32(frame, uint32(len(hdr)))
	return append(frame, hdr...)
}

// TestJSONEraFrameRefused: a peer still speaking the JSON header is told
// so with ErrFrameVersion at its first frame — by the decoder, by a client
// reading such a reply on either kind of connection, and by a server,
// which says so in one parting frame and hangs up without running a
// handler.
func TestJSONEraFrameRefused(t *testing.T) {
	for _, hdr := range []string{`{"op":"commit","meta":{"n":1}}`, `{"sid":9,"op":"alloc"}`, `{}`} {
		if _, err := Read(bytes.NewReader(jsonEraFrame(hdr))); !errors.Is(err, ErrFrameVersion) {
			t.Fatalf("header %s: got %v, want ErrFrameVersion", hdr, err)
		}
	}

	// An old server: answers whatever it is sent with a JSON-era frame.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				var pre [12]byte
				if _, err := io.ReadFull(c, pre[:]); err != nil {
					return
				}
				c.Write(jsonEraFrame(`{"op":"ping","sid":1,"meta":{"ok":true}}`))
				io.Copy(io.Discard, c)
			}()
		}
	}()
	conn, err := Dial(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Call("ping", nil, nil, nil); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("Conn.Call against an old server: %v", err)
	}
	mc, err := DialMux(ln.Addr().String(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	if _, err := mc.Call("ping", nil, nil, nil); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("MuxConn.Call against an old server: %v", err)
	}

	// An old client against this server.
	var handled atomic.Int32
	sln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sln, func(*Req) (Resp, error) {
		handled.Add(1)
		return Resp{}, nil
	}, nil)
	defer srv.Close()
	old, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	// Two frames: were the first merely skipped, the second would be served.
	old.Write(jsonEraFrame(`{"op":"ping"}`))
	old.Write(jsonEraFrame(`{"op":"ping"}`))
	old.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := Read(old)
	if err != nil || !strings.Contains(reply.Err, ErrFrameVersion.Error()) {
		t.Fatalf("server's parting frame: %+v, %v; want one naming the version error", reply, err)
	}
	// The hang-up is a FIN, or a reset when the second frame was still
	// unread in the server's socket as it closed: either way, nothing more.
	if rest, err := io.ReadAll(old); len(rest) != 0 || (err != nil && !errors.Is(err, syscall.ECONNRESET)) {
		t.Fatalf("server sent %d more bytes (err %v), want a hang-up", len(rest), err)
	}
	if handled.Load() != 0 {
		t.Fatal("server ran a handler for a JSON-era frame")
	}
}

// TestOversizedFrameFailsCallNotConnection: a request whose header or body
// would exceed the frame limits fails that call before anything reaches
// the wire, and the connection — serial or multiplexed — serves the next.
func TestOversizedFrameFailsCallNotConnection(t *testing.T) {
	_, addr := echoServer(t)
	conn, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	mc, err := DialMux(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mc.Close()
	bigMeta := json.RawMessage(`"` + strings.Repeat("m", MaxHeaderLen) + `"`)
	bigBody := make([]byte, MaxBodyLen+1) // never touched: the length alone is refused
	for name, call := range map[string]func(string, interface{}, []byte, interface{}) ([]byte, error){
		"conn": conn.Call, "mux": mc.Call,
	} {
		if _, err := call("echo", bigMeta, nil, nil); !errors.Is(err, ErrHeaderTooLarge) {
			t.Fatalf("%s: oversized meta: %v", name, err)
		}
		if _, err := call("echo", nil, bigBody, nil); !errors.Is(err, ErrBodyTooLarge) {
			t.Fatalf("%s: oversized body: %v", name, err)
		}
		body, err := call("echo", nil, []byte("after"), nil)
		if err != nil || string(body) != "after" {
			t.Fatalf("%s: connection unusable after a refused frame: %q, %v", name, body, err)
		}
	}
}

func TestReadTruncatedStream(t *testing.T) {
	var full bytes.Buffer
	if err := Write(&full, &Msg{Op: "op", Body: []byte("payload")}); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	for cut := 1; cut < len(raw); cut += 3 {
		if _, err := Read(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes went unnoticed", cut)
		}
	}
}

func TestMetaHelpers(t *testing.T) {
	type payload struct {
		A int    `json:"a"`
		B string `json:"b"`
	}
	raw, err := MarshalMeta(payload{A: 7, B: "x"})
	if err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := UnmarshalMeta(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.A != 7 || got.B != "x" {
		t.Fatalf("round trip got %+v", got)
	}
	if raw, err := MarshalMeta(nil); err != nil || raw != nil {
		t.Fatal("MarshalMeta(nil) should be nil,nil")
	}
	if err := UnmarshalMeta(nil, &got); err != nil {
		t.Fatal("UnmarshalMeta(nil) should be a no-op")
	}
}

func echoServer(t *testing.T) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, func(req *Req) (Resp, error) {
		switch req.Op {
		case "echo":
			return Resp{Meta: json.RawMessage(req.Meta), Body: req.Body}, nil
		case "fail":
			return Resp{}, fmt.Errorf("boom: %w", core.ErrNotFound)
		default:
			return Resp{}, fmt.Errorf("unknown op %q", req.Op)
		}
	}, nil)
	t.Cleanup(func() { srv.Close() })
	return srv, srv.Addr()
}

func TestRPCEcho(t *testing.T) {
	_, addr := echoServer(t)
	conn, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var respMeta map[string]int
	body, err := conn.Call("echo", map[string]int{"n": 42}, []byte("bulk"), &respMeta)
	if err != nil {
		t.Fatal(err)
	}
	if respMeta["n"] != 42 {
		t.Fatalf("meta round trip got %v", respMeta)
	}
	if string(body) != "bulk" {
		t.Fatalf("body round trip got %q", body)
	}
}

func TestRPCRemoteErrorSentinel(t *testing.T) {
	_, addr := echoServer(t)
	conn, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	_, err = conn.Call("fail", nil, nil, nil)
	if err == nil {
		t.Fatal("expected remote error")
	}
	if !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("sentinel lost across the wire: %v", err)
	}
	var remote *RemoteError
	if !errors.As(err, &remote) || remote.Op != "fail" {
		t.Fatalf("want RemoteError for op fail, got %#v", err)
	}
}

func TestRPCConcurrentCallsOneConn(t *testing.T) {
	_, addr := echoServer(t)
	conn, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := []byte(fmt.Sprintf("payload-%d", i))
			body, err := conn.Call("echo", nil, payload, nil)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(body, payload) {
				errs <- fmt.Errorf("mismatched response %q for %q", body, payload)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPoolReusesAndRetries(t *testing.T) {
	_, addr := echoServer(t)
	pool := NewPool(nil, 4)
	defer pool.Close()

	for i := 0; i < 10; i++ {
		body, err := pool.Call(addr, "echo", nil, []byte("x"), nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != "x" {
			t.Fatalf("bad body %q", body)
		}
	}
	// Remote errors must keep the connection pooled and not be retried.
	if _, err := pool.Call(addr, "fail", nil, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func TestPoolRetriesStaleConnection(t *testing.T) {
	srv, addr := echoServer(t)
	pool := NewPool(nil, 4)
	defer pool.Close()

	if _, err := pool.Call(addr, "echo", nil, []byte("a"), nil); err != nil {
		t.Fatal(err)
	}
	// Restart the server on the same address so the pooled conn is stale.
	srv.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := NewServer(ln, func(req *Req) (Resp, error) {
		return Resp{Body: req.Body}, nil
	}, nil)
	defer srv2.Close()

	if _, err := pool.Call(addr, "echo", nil, []byte("b"), nil); err != nil {
		t.Fatalf("pool did not recover from stale connection: %v", err)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, _ := echoServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestConnCallAfterClose(t *testing.T) {
	_, addr := echoServer(t)
	conn, err := Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := conn.Call("echo", nil, nil, nil); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("want ErrClosed, got %v", err)
	}
}
