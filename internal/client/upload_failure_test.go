package client

import (
	"bytes"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/core"
	"stdchk/internal/leakcheck"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/wire"
)

// A writer dials nothing at Create: a stripe node that cannot be reached
// is discovered by the first put addressed to it. The two tests below pin
// what a failed session leaves behind — nothing: the error names the
// node, the manager session is aborted and its reservation released, every
// pooled chunk buffer is back, and no goroutine of the writer survives.

// goroutineBaseline is a leak check's starting point: the goroutine count
// the check compares against, and the goroutines themselves, which a
// failed check prints beside the ones it found.
type goroutineBaseline struct {
	n    int
	snap leakcheck.Snapshot
}

// settledGoroutines takes the baseline once the goroutine count has
// stopped falling: connection goroutines on both ends wind down
// asynchronously.
func settledGoroutines() goroutineBaseline {
	n := runtime.NumGoroutine()
	for settled := 0; settled < 5; {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now < n {
			n, settled = now, 0
		} else {
			settled++
		}
	}
	return goroutineBaseline{n: n, snap: leakcheck.Take()}
}

// mustStore writes one image through to its commit — as the warm-up that
// dials the pool's connections before a baseline is taken, say.
func mustStore(t *testing.T, cl *Client, name string, data []byte) *Writer {
	t.Helper()
	w, err := cl.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	return w
}

// writerGoroutinesGone waits, once Wait has returned, for the goroutine
// count to fall back to baseline with no goroutine of a Writer — stage,
// hasher, uploader or put — left. A goroutine that has signalled its
// WaitGroup is still listed until it returns, so it polls the stacks too,
// not only the count.
func writerGoroutinesGone(t *testing.T, baseline goroutineBaseline) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		n, stacks := runtime.NumGoroutine(), string(buf[:runtime.Stack(buf, true)])
		if n <= baseline.n && !strings.Contains(stacks, "client.(*Writer)") {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the session, %d before Create:\n%s", n, baseline.n, leakcheck.Report(baseline.snap, leakcheck.Take()))
			return
		}
	}
}

// checkFailedSessionLeftNothing asserts the aftermath shared by both
// tests, once Wait has returned.
func checkFailedSessionLeftNothing(t *testing.T, mgr *manager.Manager, cl *Client, tr *bufTracker, baseline goroutineBaseline) {
	t.Helper()
	if n, ok := mgr.Stats().Counters["sessions.active"]; !ok || n.Value != 0 {
		t.Errorf("write sessions still open on the manager: %+v (declared: %v); the failed one was not aborted", n, ok)
	}
	benefs, err := cl.Benefactors()
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range benefs {
		if b.Reserved != 0 {
			t.Errorf("benefactor %s still holds a %d-byte reservation", b.ID, b.Reserved)
		}
	}
	tr.check()
	writerGoroutinesGone(t, baseline)
}

func TestUnreachableStripeNodeFailsAtFirstPut(t *testing.T) {
	mgr, benefs := startCluster(t, 3, 0)
	cl, err := New(Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 3,
		ChunkSize:   16 << 10,
		BufferBytes: 64 << 10, // small window: the failure reaches Write
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	// Warm the pool, then take a node away. The manager keeps it
	// allocatable until its heartbeat TTL runs out, so the next stripe
	// still includes it.
	mustStore(t, cl, "unreach.n1.t0", fill(6*16<<10, 1))
	dead := benefs[0].Addr()
	benefs[0].Close()
	baseline := settledGoroutines()

	w, err := cl.Create("unreach.n1.t1")
	if err != nil {
		t.Fatalf("Create dials nothing and must not notice the dead node: %v", err)
	}
	var writeErr error
	for i := 0; i < 256 && writeErr == nil; i++ {
		_, writeErr = w.Write(fill(3*16<<10, byte(i)))
	}
	closeErr, waitErr := w.Close(), w.Wait()
	for op, err := range map[string]error{"Write": writeErr, "Close": closeErr, "Wait": waitErr} {
		if err == nil || !strings.Contains(err.Error(), dead) {
			t.Errorf("%s returned %v; want an error naming stripe node %s", op, err, dead)
		}
	}
	checkFailedSessionLeftNothing(t, mgr, cl, tr, baseline)
}

// gatedStore holds every Put, once armed, until release is closed —
// puts pile up in flight on the benefactor. reached counts the chunks of
// the put requests the benefactor has read off its connections since it
// was armed: a batched put's later chunks wait behind its first one inside
// one handler, so they never enter Put while the gate is shut.
type gatedStore struct {
	store.Store
	armed   *atomic.Bool
	reached *atomic.Int64
	release chan struct{}
}

func (g gatedStore) Put(id core.ChunkID, data []byte) (bool, error) {
	if g.armed.Load() {
		<-g.release
	}
	return g.Store.Put(id, data)
}

// watch is the benefactor's Shaper: it counts, into reached, the chunks of
// every BPut and BPutBatch frame read off conn while the gate is armed.
func (g gatedStore) watch(conn net.Conn) net.Conn { return &putCounter{Conn: conn, g: g} }

// putCounter reassembles the frames read off a connection, whatever the
// sizes of the Reads that carried them. A connection has one reader.
type putCounter struct {
	net.Conn
	g   gatedStore
	buf []byte
}

func (c *putCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.buf = append(c.buf, p[:n]...)
	for len(c.buf) > 0 {
		r := bytes.NewReader(c.buf)
		var m wire.Msg
		if wire.ReadInto(r, &m) != nil {
			break // the rest of the frame has not arrived yet
		}
		c.buf = c.buf[len(c.buf)-r.Len():]
		if m.Body != nil {
			wire.PutBuf(m.Body)
		}
		if !c.g.armed.Load() {
			continue
		}
		switch m.Op {
		case proto.BPut:
			c.g.reached.Add(1)
		case proto.BPutBatch:
			var req proto.BatchPutReq
			if wire.UnmarshalMeta(m.Meta, &req) == nil {
				c.g.reached.Add(int64(len(req.IDs)))
			}
		}
	}
	return n, err
}

// TestBenefactorKilledMidUploadWithFullWindow kills a stripe node while it
// holds a full write window of accepted, unacknowledged puts: one chunk in
// the whole pipeline (BufferBytes = ChunkSize, stop-and-wait); the default
// buffer, under which the node's whole share of the image is in flight at
// once; a share larger than maxNodePuts, where the chunks past the cap
// are still queued behind the uploader when the session fails and must
// drain unsent, each buffer returned once; and an image the buffer admitted
// whole, a thousand chunks of it still ahead of the hasher, in a queue that
// holds whatever the buffer let in.
func TestBenefactorKilledMidUploadWithFullWindow(t *testing.T) {
	const chunk = 16 << 10
	for _, tc := range []struct {
		name        string
		bufferBytes int64
		perNode     int // chunks of the image bound for each node
		held        int // puts the victim holds unacknowledged when killed
		queued      int // chunks that must be waiting for the hasher by then
	}{
		{"one chunk", chunk, 16, 1, 0},
		{"whole image", 0, 16, 16, 0},
		{"past the put cap", 0, maxNodePuts + 8, maxNodePuts, 0},
		{"a thousand chunks ahead of the hasher", 0, 700, maxNodePuts, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			benefactorKilledMidUpload(t, chunk, tc.bufferBytes, tc.perNode, tc.held, tc.queued)
		})
	}
}

// waitFor polls cond, which becomes true once the pipeline has run as far
// as its frozen stage lets it.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func benefactorKilledMidUpload(t *testing.T, chunk, bufferBytes int64, perNode, held, queuedChunks int) {
	mgr, err := manager.New(manager.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	gate := gatedStore{
		Store:   store.NewMemory(0, nil),
		armed:   new(atomic.Bool),
		reached: new(atomic.Int64),
		release: make(chan struct{}),
	}
	victim, err := benefactor.New(benefactor.Config{ManagerAddr: mgr.Addr(), Store: gate, Shaper: gate.watch})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { victim.Close() })
	// Runs before the victim closes, so a test that gave up early does not
	// leave it waiting for its held handlers.
	release := sync.OnceFunc(func() { close(gate.release) })
	t.Cleanup(release)
	other, err := benefactor.New(benefactor.Config{ManagerAddr: mgr.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	waitForBenefactors(t, mgr, 2)

	cl, err := New(Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 2,
		ChunkSize:   chunk,
		BufferBytes: bufferBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	mustStore(t, cl, "killed.n1.t0", fill(int(8*chunk), 1))
	gate.armed.Store(true)
	baseline := settledGoroutines()

	w, err := cl.Create("killed.n1.t1")
	if err != nil {
		t.Fatal(err)
	}
	// With a window smaller than the image Write blocks on the gated node
	// until the kill fails the session.
	wrote := make(chan error, 1)
	go func() {
		_, err := w.Write(fill(2*perNode*int(chunk), 2))
		wrote <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); gate.reached.Load() < int64(held); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of a window of %d puts reached the benefactor", gate.reached.Load(), held)
		}
	}
	if held < perNode && bufferBytes == 0 {
		// The buffer admitted the node's whole share; what holds the rest
		// back is the cap, and they wait unsent in the upload queue.
		time.Sleep(50 * time.Millisecond)
		if n := gate.reached.Load(); n > int64(held) {
			t.Fatalf("%d puts reached the benefactor at once, more than maxNodePuts = %d", n, maxNodePuts)
		}
	}
	// Everything the gated node's full put window keeps the hasher from
	// dispatching waits in its queue; the buffer took the image whole.
	waitFor(t, "the hasher's queue to fill", func() bool { return queued(&w.hashQ) >= queuedChunks })
	// The window is full and unacknowledged. Kill the node: its sockets
	// close at once, its handlers finish when the gate opens.
	killed := make(chan struct{})
	go func() {
		victim.Close()
		close(killed)
	}()
	writeErr := <-wrote
	<-w.failed
	if _, err := w.Write([]byte{0}); err == nil || !strings.Contains(err.Error(), victim.Addr()) {
		t.Errorf("Write on the failed session returned %v; want the error naming stripe node %s", err, victim.Addr())
	}
	closeErr, waitErr := w.Close(), w.Wait()
	release()
	<-killed
	for op, err := range map[string]error{"Write": writeErr, "Close": closeErr} {
		if err != nil && !strings.Contains(err.Error(), victim.Addr()) {
			t.Errorf("%s returned %v; want nil or an error naming stripe node %s", op, err, victim.Addr())
		}
	}
	if waitErr == nil || !strings.Contains(waitErr.Error(), victim.Addr()) {
		t.Errorf("Wait returned %v; want an error naming stripe node %s", waitErr, victim.Addr())
	}
	if _, err := cl.Open("killed.n1.t1", OpenOptions{Latest: true}); err == nil {
		t.Error("the failed session left a committed version")
	} else if r, err := cl.Open("killed.n1"); err != nil {
		t.Errorf("the warm-up version is gone: %v", err)
	} else {
		r.Close()
	}
	checkFailedSessionLeftNothing(t, mgr, cl, tr, baseline)
}
