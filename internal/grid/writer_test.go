package grid

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/device"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// The tests below drive the upload path of a client with no write-side
// switch set over real sockets: what a user gets by default.

// TestDefaultWriterDialsNothingPerCreate counts the sockets a default
// client opens. The first checkpoint dials the manager and the shared
// multiplexed pool's connections to the stripe; the checkpoints after it
// must ride those and open nothing.
func TestDefaultWriterDialsNothingPerCreate(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	var dials atomic.Int64
	cl, err := client.New(client.Config{
		ManagerAddr: c.Manager.Addr(),
		StripeWidth: 4,
		ChunkSize:   64 << 10,
		Replication: 1,
		Shaper: func(conn net.Conn) net.Conn {
			dials.Add(1)
			return conn
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	writeFile(t, cl, "dials.n1.t0", payload(80, 1<<20))
	if dials.Load() == 0 {
		t.Fatal("the shaper saw no dial at all; the counter is not wired to the client's connections")
	}
	warm := dials.Load()
	for i := 1; i <= 5; i++ {
		name := fmt.Sprintf("dials.n1.t%d", i)
		data := payload(int64(80+i), 1<<20)
		writeFile(t, cl, name, data)
		if got := readFile(t, cl, name); !bytes.Equal(got, data) {
			t.Fatalf("%s: restore is not byte-identical", name)
		}
	}
	if opened := dials.Load() - warm; opened != 0 {
		t.Fatalf("5 checkpoints on a warm client opened %d sockets, want 0", opened)
	}
}

// TestStopAndWaitUploadIsWindowOne runs the one upload loop under a write
// window of one chunk (BufferBytes = ChunkSize) and checks it is
// stop-and-wait: never a second BPut on its way to a node before the node
// acknowledged the previous one. The default writer on the same image must
// overlap puts, which shows the gauge can see the difference. Both store
// the image intact.
func TestStopAndWaitUploadIsWindowOne(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	data := payload(81, 2<<20)
	const chunk = 32 << 10

	upload := func(name string, cfg client.Config) (peakNode int) {
		t.Helper()
		g := newWindowGauge()
		cfg.ManagerAddr = c.Manager.Addr()
		cfg.StripeWidth, cfg.ChunkSize, cfg.Replication = 4, chunk, 1
		cfg.Shaper = g.watch
		cl, err := client.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		writeFile(t, cl, name, data)
		if got := readFile(t, cl, name); !bytes.Equal(got, data) {
			t.Fatalf("%s: restore is not byte-identical", name)
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		return g.peakNode
	}

	if peak := upload("saw.n2.t0", client.Config{BufferBytes: chunk}); peak != 1 {
		t.Fatalf("BufferBytes = ChunkSize: %d puts outstanding at one node; want 1, each sent after the previous one's ack", peak)
	}
	if peak := upload("saw.n3.t0", client.Config{}); peak < 2 {
		t.Fatal("default writer: no put ever overlapped another on its node; the window is not engaging")
	}
}

// frameScanner reassembles one direction of a connection's byte stream
// into frames, whatever the sizes of the Writes or Reads that carried it.
type frameScanner struct{ buf []byte }

func (s *frameScanner) feed(p []byte, each func(*wire.Msg)) {
	s.buf = append(s.buf, p...)
	for len(s.buf) > 0 {
		r := bytes.NewReader(s.buf)
		var m wire.Msg
		if err := wire.ReadInto(r, &m); err != nil {
			return // the rest of the frame has not passed yet
		}
		each(&m)
		if m.Body != nil {
			wire.PutBuf(m.Body)
		}
		s.buf = s.buf[len(s.buf)-r.Len():]
	}
}

// windowGauge watches a client's connections from outside and keeps the
// chunk puts handed to the link and not yet answered: how many any one
// stripe node owed an answer for at once, and their bytes over all nodes.
type windowGauge struct {
	mu        sync.Mutex
	unacked   map[putKey]int64 // body bytes of each unanswered put
	perNode   map[string]int
	bytes     int64
	peakNode  int
	peakBytes int64
}

// putKey names a request: session IDs are per connection.
type putKey struct {
	conn net.Conn
	sid  uint64
}

// watchedConn feeds both directions of a connection to its gauge. A
// multiplexed connection has one writer and one reader at a time, so each
// scanner is fed serially.
type watchedConn struct {
	net.Conn
	g       *windowGauge
	out, in frameScanner
}

func newWindowGauge() *windowGauge {
	return &windowGauge{unacked: make(map[putKey]int64), perNode: make(map[string]int)}
}

func (g *windowGauge) watch(conn net.Conn) net.Conn {
	return &watchedConn{Conn: conn, g: g}
}

func (c *watchedConn) Write(p []byte) (int, error) {
	c.out.feed(p, func(m *wire.Msg) {
		if m.Op == proto.BPut {
			c.g.sent(c, m.Session, int64(len(m.Body)))
		}
	})
	return c.Conn.Write(p)
}

func (c *watchedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.feed(p[:n], func(m *wire.Msg) { c.g.answered(c, m.Session) })
	return n, err
}

func (g *windowGauge) sent(c *watchedConn, sid uint64, size int64) {
	node := c.RemoteAddr().String()
	g.mu.Lock()
	defer g.mu.Unlock()
	g.unacked[putKey{c, sid}] = size
	g.perNode[node]++
	g.bytes += size
	if g.perNode[node] > g.peakNode {
		g.peakNode = g.perNode[node]
	}
	if g.bytes > g.peakBytes {
		g.peakBytes = g.bytes
	}
}

func (g *windowGauge) answered(c *watchedConn, sid uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if size, ok := g.unacked[putKey{c, sid}]; ok {
		delete(g.unacked, putKey{c, sid})
		g.perNode[c.RemoteAddr().String()]--
		g.bytes -= size
	}
}

// TestWriteWindowIsBufferBytes pins the one bound on bytes in flight. On a
// link with latency the writer must send every chunk BufferBytes admits
// without waiting for an earlier one's ack — more than the eight puts per
// node a count window once allowed — and the put bodies handed to the link
// and not yet answered must never exceed BufferBytes. The only other limit
// is what a donor dispatches at once, two connections of
// wire.DefaultConnInflight handlers each: 64 KB chunks never reach it
// before the buffer binds, 4 KB chunks under the default buffer do.
func TestWriteWindowIsBufferBytes(t *testing.T) {
	const (
		defaultBuffer = 64 << 20
		nodeCap       = 2 * wire.DefaultConnInflight
	)
	for _, tc := range []struct {
		name          string
		chunk, buffer int64 // buffer 0 = the default
		image         int
	}{
		{"64k chunks under a 4 MB buffer", 64 << 10, 4 << 20, 8 << 20},
		{"4k chunks under the default buffer", 4 << 10, 0, 4 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := testCluster(t, 4, manager.Config{})
			g := newWindowGauge()
			// The delay is long enough for the hasher to fill the window
			// behind the first transmission even under the race detector.
			nic := device.NewNode(device.Profile{LinkDelay: 25 * time.Millisecond}).NIC
			cl, err := client.New(client.Config{
				ManagerAddr: c.Manager.Addr(),
				StripeWidth: 4,
				ChunkSize:   tc.chunk,
				BufferBytes: tc.buffer,
				Replication: 1,
				Shaper:      func(conn net.Conn) net.Conn { return g.watch(device.Shape(conn, nic, nil)) },
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			data := payload(82, tc.image)
			writeFile(t, cl, "window.n1.t0", data)
			if got := readFile(t, cl, "window.n1.t0"); !bytes.Equal(got, data) {
				t.Fatal("restore is not byte-identical")
			}

			g.mu.Lock()
			defer g.mu.Unlock()
			if len(g.unacked) != 0 || g.bytes != 0 {
				t.Errorf("%d puts (%d bytes) still unanswered after the commit", len(g.unacked), g.bytes)
			}
			if g.peakNode <= 8 {
				t.Errorf("at most %d puts were ever outstanding at one node; a count window is still clamping the writer", g.peakNode)
			}
			if g.peakNode > nodeCap {
				t.Errorf("%d puts outstanding at one node; a donor dispatches %d", g.peakNode, nodeCap)
			}
			buffer := tc.buffer
			if buffer == 0 {
				buffer = defaultBuffer
			}
			if g.peakBytes > buffer {
				t.Errorf("%d put bytes outstanding under a %d-byte write window", g.peakBytes, buffer)
			}
			t.Logf("peak: %d puts at one node, %d bytes over the stripe", g.peakNode, g.peakBytes)
		})
	}
}
