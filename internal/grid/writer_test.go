package grid

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"stdchk/internal/client"
	"stdchk/internal/manager"
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

// nodeGauges hands every connection to one remote address the same
// requestGauge, so overlap is judged per stripe node however many pooled
// connections the node has.
type nodeGauges struct {
	mu     sync.Mutex
	byAddr map[string]*requestGauge
}

func (n *nodeGauges) shape(conn net.Conn) net.Conn {
	addr := conn.RemoteAddr().String()
	n.mu.Lock()
	g := n.byAddr[addr]
	if g == nil {
		g = &requestGauge{}
		n.byAddr[addr] = g
	}
	n.mu.Unlock()
	return &gaugedConn{Conn: conn, g: g}
}

// overlapped sums, over the benefactors, the requests that were sent
// while the node still owed a reply.
func (n *nodeGauges) overlapped(c *Cluster) (total int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, b := range c.Benefactors {
		if g := n.byAddr[b.Addr()]; g != nil {
			total += g.overlapped.Load()
		}
	}
	return total
}

// TestStopAndWaitUploadIsWindowOne runs the one upload loop at
// UploadWindow = 1 and checks it is stop-and-wait: never a second BPut on
// its way to a node before the node acknowledged the previous one. The
// default writer on the same image must overlap puts, which shows the
// gauge can see the difference. Both store the image intact.
func TestStopAndWaitUploadIsWindowOne(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	data := payload(81, 2<<20)

	upload := func(name string, cfg client.Config) int64 {
		t.Helper()
		gauges := &nodeGauges{byAddr: make(map[string]*requestGauge)}
		cfg.ManagerAddr = c.Manager.Addr()
		cfg.StripeWidth, cfg.ChunkSize, cfg.Replication = 4, 32<<10, 1
		cfg.Shaper = gauges.shape
		cl, err := client.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		writeFile(t, cl, name, data)
		overlapped := gauges.overlapped(c) // before the restore adds its own requests
		if got := readFile(t, cl, name); !bytes.Equal(got, data) {
			t.Fatalf("%s: restore is not byte-identical", name)
		}
		return overlapped
	}

	if overlapped := upload("saw.n2.t0", client.Config{UploadWindow: 1}); overlapped != 0 {
		t.Fatalf("UploadWindow=1: %d puts were sent to a node that still owed an ack; want 0", overlapped)
	}
	if overlapped := upload("saw.n3.t0", client.Config{}); overlapped == 0 {
		t.Fatal("default writer: no put ever overlapped another on its node; the window is not engaging")
	}
}
