package device

import (
	"bytes"
	"io"
	"net"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestLimiterUnshaped(t *testing.T) {
	var nilL *Limiter
	start := time.Now()
	nilL.Acquire(1 << 30) // must not block or panic
	NewLimiter(0).Acquire(1 << 30)
	NewLimiter(-1).Acquire(1 << 30)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("unshaped limiter blocked")
	}
	if nilL.Rate() != 0 || NewLimiter(0).Rate() != 0 {
		t.Fatal("unshaped limiter reports a rate")
	}
}

func TestLimiterPacing(t *testing.T) {
	// 10 MB/s, transfer 1 MB -> ~100 ms.
	l := NewLimiter(10e6)
	start := time.Now()
	l.Acquire(1e6)
	got := time.Since(start)
	if got < 80*time.Millisecond || got > 400*time.Millisecond {
		t.Fatalf("1MB at 10MB/s took %v, want ~100ms", got)
	}
}

func TestLimiterSerializesConcurrentUsers(t *testing.T) {
	// Two concurrent 1 MB transfers through a 20 MB/s device take ~100 ms
	// in total (they share the queue), not ~50 ms each in parallel.
	l := NewLimiter(20e6)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Acquire(1e6)
		}()
	}
	wg.Wait()
	got := time.Since(start)
	if got < 80*time.Millisecond {
		t.Fatalf("two queued transfers finished in %v, want >= ~100ms", got)
	}
}

func TestLimiterBusy(t *testing.T) {
	l := NewLimiter(1e6) // 1 MB/s
	if l.Busy() {
		t.Fatal("fresh limiter busy")
	}
	done := make(chan struct{})
	go func() {
		l.Acquire(200e3) // 200 ms of work
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	if !l.Busy() {
		t.Fatal("limiter with queued work not busy")
	}
	<-done
	time.Sleep(10 * time.Millisecond)
	if l.Busy() {
		t.Fatal("drained limiter still busy")
	}
}

func TestLimiterSetRate(t *testing.T) {
	l := NewLimiter(1)
	l.SetRate(1e12)
	start := time.Now()
	l.Acquire(1e6)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("SetRate did not take effect")
	}
	if l.Rate() != 1e12 {
		t.Fatalf("Rate() = %v, want 1e12", l.Rate())
	}
}

func TestDiskPacingAndBusy(t *testing.T) {
	d := NewDisk(MBps(100), MBps(10))
	start := time.Now()
	d.Write(1e6) // 1 MB at 10 MB/s -> ~100 ms
	wrote := time.Since(start)
	if wrote < 80*time.Millisecond || wrote > 400*time.Millisecond {
		t.Fatalf("write took %v, want ~100ms", wrote)
	}
	start = time.Now()
	d.Read(1e6) // 1 MB at 100 MB/s -> ~10 ms
	read := time.Since(start)
	if read > wrote {
		t.Fatalf("read (%v) slower than write (%v) despite faster rate", read, wrote)
	}
	if d.Busy() {
		t.Fatal("idle disk busy")
	}
}

func TestUnshapedDisk(t *testing.T) {
	d := UnshapedDisk()
	start := time.Now()
	d.Write(1 << 30)
	d.Read(1 << 30)
	if time.Since(start) > 100*time.Millisecond {
		t.Fatal("unshaped disk blocked")
	}
	var nilDisk *Disk
	nilDisk.Write(10) // must not panic
	if nilDisk.Busy() {
		t.Fatal("nil disk busy")
	}
}

func TestCallCost(t *testing.T) {
	c := NewCallCost(20 * time.Millisecond)
	start := time.Now()
	c.Pay()
	if time.Since(start) < 15*time.Millisecond {
		t.Fatal("CallCost did not block")
	}
	if c.Cost() != 20*time.Millisecond {
		t.Fatalf("Cost() = %v", c.Cost())
	}
	var free *CallCost
	free.Pay() // nil is free
	if free.Cost() != 0 {
		t.Fatal("nil CallCost has non-zero cost")
	}
}

func TestUnitHelpers(t *testing.T) {
	if MBps(1) != 1e6 {
		t.Fatalf("MBps(1) = %v", MBps(1))
	}
	if Gbps(1) != 125e6 {
		t.Fatalf("Gbps(1) = %v", Gbps(1))
	}
}

func TestProfiles(t *testing.T) {
	p := PaperNode()
	if p.DiskWriteBps != MBps(86.2) {
		t.Fatalf("paper disk write = %v", p.DiskWriteBps)
	}
	if p.LinkBps != Gbps(1) {
		t.Fatalf("paper link = %v", p.LinkBps)
	}
	ten := PaperTenGigClient()
	if ten.LinkBps != Gbps(10) {
		t.Fatalf("10G client link = %v", ten.LinkBps)
	}
	n := NewNode(Unshaped())
	if n.Disk == nil || n.NIC == nil || n.Mem == nil || n.Fuse == nil {
		t.Fatal("NewNode left nil devices")
	}
}

func TestShapedConnRoundTrip(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	// Shape only the client side; 1 MB/s TX.
	nic := NewNIC(1e6)
	shaped := Shape(client, nic, nil)

	msg := bytes.Repeat([]byte("x"), 100e3) // 100 KB -> ~100 ms at 1 MB/s
	var got []byte
	var rerr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, len(msg))
		n := 0
		for n < len(buf) {
			k, err := server.Read(buf[n:])
			n += k
			if err != nil {
				rerr = err
				return
			}
		}
		got = buf
	}()

	start := time.Now()
	if _, err := shaped.Write(msg); err != nil {
		t.Fatal(err)
	}
	<-done
	if rerr != nil {
		t.Fatal(rerr)
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("shaped write did not pace")
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("payload corrupted through shaping")
	}
}

func TestShapeNilPassthrough(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	if Shape(c, nil, nil) != c {
		t.Fatal("Shape(nil nic, nil fabric) should return conn unchanged")
	}
	if Shape(nil, nil, nil) != nil {
		t.Fatal("Shape(nil conn) should be nil")
	}
}

func TestFabricSharedAcrossConns(t *testing.T) {
	fabric := NewLimiter(1e6) // 1 MB/s shared
	c1, s1 := net.Pipe()
	c2, s2 := net.Pipe()
	defer func() { c1.Close(); s1.Close(); c2.Close(); s2.Close() }()
	a := Shape(c1, nil, fabric)
	b := Shape(c2, nil, fabric)

	drain := func(conn net.Conn, n int) chan struct{} {
		ch := make(chan struct{})
		go func() {
			defer close(ch)
			buf := make([]byte, 32<<10)
			read := 0
			for read < n {
				k, err := conn.Read(buf)
				read += k
				if err != nil {
					return
				}
			}
		}()
		return ch
	}

	const each = 50e3 // 2 x 50 KB over 1 MB/s shared fabric -> >= ~100 ms
	d1 := drain(s1, each)
	d2 := drain(s2, each)
	start := time.Now()
	var wg sync.WaitGroup
	for _, conn := range []net.Conn{a, b} {
		wg.Add(1)
		go func(c net.Conn) {
			defer wg.Done()
			c.Write(make([]byte, each))
		}(conn)
	}
	wg.Wait()
	<-d1
	<-d2
	if got := time.Since(start); got < 80*time.Millisecond {
		t.Fatalf("fabric not shared: both transfers done in %v", got)
	}
}

func TestShapeUnshapedNodeIsNotWrapped(t *testing.T) {
	c, s := net.Pipe()
	defer c.Close()
	defer s.Close()
	if got := Shape(c, NewNode(Unshaped()).NIC, nil); got != c {
		t.Fatalf("an unshaped node's NIC wrapped the connection in %T", got)
	}
	if got := Shape(c, NewNode(Unshaped()).NIC, NewLimiter(0)); got != c {
		t.Fatalf("an unrated fabric wrapped the connection in %T", got)
	}
}

// recordConn records each Write it is handed and sends nothing.
type recordConn struct {
	net.Conn
	writes [][]byte
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestShapedConnDelayOnlyIsOneTransmission: on a link with a delay and no
// rate, a Write and a buffer list each pay exactly one delay and reach the
// inner connection as one write, unsplit.
func TestShapedConnDelayOnlyIsOneTransmission(t *testing.T) {
	var delays []time.Duration
	linkSleep = func(d time.Duration) { delays = append(delays, d) }
	defer func() { linkSleep = time.Sleep }()

	inner := &recordConn{}
	sc, ok := Shape(inner, NewNode(Profile{LinkDelay: time.Millisecond}).NIC, nil).(*ShapedConn)
	if !ok {
		t.Fatal("a delay-only link was not shaped")
	}
	big := bytes.Repeat([]byte("w"), 3*writeQuantum+5)
	if n, err := sc.Write(big); err != nil || n != len(big) {
		t.Fatalf("Write: %d, %v", n, err)
	}
	head, body := []byte("header"), bytes.Repeat([]byte("b"), 2*writeQuantum)
	if n, err := sc.WriteBuffers(&net.Buffers{head, body, []byte("next")}); err != nil || n != int64(len(head)+len(body)+4) {
		t.Fatalf("WriteBuffers: %d, %v", n, err)
	}
	if len(delays) != 2 || delays[0] != time.Millisecond || delays[1] != time.Millisecond {
		t.Fatalf("two transmissions paid delays %v, want one millisecond each", delays)
	}
	if len(inner.writes) != 2 {
		t.Fatalf("two transmissions reached the inner connection as %d writes", len(inner.writes))
	}
	if !bytes.Equal(inner.writes[0], big) || !bytes.Equal(inner.writes[1], slices.Concat(head, body, []byte("next"))) {
		t.Fatal("a transmission's bytes changed on the way through")
	}
}

// TestShapedConnPacesBufferLists: a rated link paces a buffer list as it
// paces one slice, and delivers its bytes in order.
func TestShapedConnPacesBufferLists(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	shaped := Shape(client, NewNIC(1e6), nil).(*ShapedConn)

	bufs := net.Buffers{bytes.Repeat([]byte("a"), 30e3), bytes.Repeat([]byte("b"), 50e3), bytes.Repeat([]byte("c"), 20e3)}
	want := slices.Concat(bufs...) // before WriteBuffers consumes bufs
	got := make([]byte, len(want))
	done := make(chan error, 1)
	go func() {
		_, err := io.ReadFull(server, got)
		done <- err
	}()
	start := time.Now()
	if _, err := shaped.WriteBuffers(&bufs); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 80*time.Millisecond {
		t.Fatal("a buffer list on a rated link was not paced")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("payload corrupted through shaping")
	}
}
