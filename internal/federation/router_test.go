package federation

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
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
