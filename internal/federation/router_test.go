package federation

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// TestOwnerCallFrameVersionNotRetried points a router at a member that
// answers every request with a frame of another protocol version. No
// retry can succeed, so the call must fail after one attempt, with no
// backoff sleep, with the frame-version error itself rather than a
// retryable transport failure.
func TestOwnerCallFrameVersionNotRetried(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var requests atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var pre [12]byte
				if _, err := io.ReadFull(conn, pre[:]); err != nil {
					return
				}
				rest := int64(binary.BigEndian.Uint32(pre[0:4])) + int64(binary.BigEndian.Uint64(pre[4:12]))
				if _, err := io.CopyN(io.Discard, conn, rest); err != nil {
					return
				}
				requests.Add(1)
				// A frame whose two-byte header starts with version 0x04.
				reply := []byte{0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0x04, 0}
				conn.Write(reply)
				io.Copy(io.Discard, conn)
			}()
		}
	}()

	r, err := NewRouter(RouterConfig{Members: []string{ln.Addr().String()}})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	start := time.Now()
	err = r.Call(proto.MGetMap, "old.n1.t0", &proto.GetMapReq{Name: "old.n1.t0"}, &proto.GetMapResp{})
	elapsed := time.Since(start)
	if !errors.Is(err, wire.ErrFrameVersion) {
		t.Fatalf("call to a member of another frame version returned %v, want wire.ErrFrameVersion", err)
	}
	if errors.Is(err, core.ErrRetryable) {
		t.Fatalf("a frame-version mismatch was marked retryable: %v", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("the member received %d requests, want 1 attempt", n)
	}
	if elapsed >= retryBase {
		t.Fatalf("the call took %v, at least one backoff sleep (%v)", elapsed, retryBase)
	}
}

// TestRouterDialsFixedConnSet holds 16 routed calls in flight at once at a
// one-member router. The member must see exactly the router's fixed set of
// wire.PeerConns connections, counted where the router dials them (its
// Shaper), not one per concurrent call; a second burst dials nothing.
func TestRouterDialsFixedConnSet(t *testing.T) {
	const burst = 16
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var inflight atomic.Int64
	all := make(chan struct{})
	var closeAll sync.Once
	srv := wire.NewServer(ln, func(req *wire.Req) (wire.Resp, error) {
		// Answer only once the whole burst is in flight, so the calls
		// overlap however the scheduler runs them.
		if inflight.Add(1)%burst == 0 {
			closeAll.Do(func() { close(all) })
		}
		select {
		case <-all:
		case <-time.After(5 * time.Second):
		}
		return wire.Resp{Meta: proto.StatVersionResp{}}, nil
	}, nil)
	defer srv.Close()

	var dials atomic.Int64
	r, err := NewRouter(RouterConfig{
		Members: []string{srv.Addr()},
		Shaper: func(c net.Conn) net.Conn {
			dials.Add(1)
			return c
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	fire := func() {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, burst)
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var resp proto.StatVersionResp
				errs <- r.Call(proto.MStatVersion, "fixed.n1.t0", &proto.StatVersionReq{Name: "fixed.n1.t0"}, &resp)
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	fire()
	if n := dials.Load(); n != wire.PeerConns {
		t.Fatalf("%d concurrent calls dialed %d connections, want the fixed %d", burst, n, wire.PeerConns)
	}
	fire()
	if n := dials.Load(); n != wire.PeerConns {
		t.Fatalf("a second burst dialed %d more connections", n-wire.PeerConns)
	}
}
