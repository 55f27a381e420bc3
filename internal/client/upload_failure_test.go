package client

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/store"
)

// A writer dials nothing at Create: a stripe node that cannot be reached
// is discovered by the first put addressed to it. The two tests below pin
// what a failed session leaves behind — nothing: the error names the
// node, the manager session is aborted and its reservation released, every
// pooled chunk buffer is back, and no goroutine of the writer survives.

// settledGoroutines returns the goroutine count once it has stopped
// falling: connection goroutines on both ends wind down asynchronously.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for settled := 0; settled < 5; {
		time.Sleep(10 * time.Millisecond)
		if now := runtime.NumGoroutine(); now < n {
			n, settled = now, 0
		} else {
			settled++
		}
	}
	return n
}

// mustStore writes one image through to its commit: the warm-up that
// dials the pool's connections before a baseline is taken.
func mustStore(t *testing.T, cl *Client, name string, data []byte) {
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
}

// checkFailedSessionLeftNothing asserts the aftermath shared by both
// tests, once Wait has returned.
func checkFailedSessionLeftNothing(t *testing.T, mgr *manager.Manager, cl *Client, tr *bufTracker, baseline int) {
	t.Helper()
	if n := mgr.Stats().ActiveSessions; n != 0 {
		t.Errorf("%d write sessions still open on the manager; the failed one was not aborted", n)
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
	// A goroutine that has signalled its WaitGroup is still listed until it
	// returns, so poll the stacks too, not only the count.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		n, stacks := runtime.NumGoroutine(), string(buf[:runtime.Stack(buf, true)])
		if n <= baseline && !strings.Contains(stacks, "client.(*Writer)") {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("%d goroutines after the failed session, %d before Create:\n%s", n, baseline, stacks)
			return
		}
	}
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
// puts pile up in flight on the benefactor.
type gatedStore struct {
	store.Store
	armed   *atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (g gatedStore) Put(id core.ChunkID, data []byte) (bool, error) {
	if g.armed.Load() {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.Store.Put(id, data)
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
		entered: make(chan struct{}, 64),
		release: make(chan struct{}),
	}
	victim, err := benefactor.New(benefactor.Config{ManagerAddr: mgr.Addr(), Store: gate})
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
	for i := 0; i < held; i++ {
		select {
		case <-gate.entered:
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of a window of %d puts reached the benefactor", i, held)
		}
	}
	if held < perNode && bufferBytes == 0 {
		// The buffer admitted the node's whole share; what holds the rest
		// back is the cap, and they wait unsent in the upload queue.
		select {
		case <-gate.entered:
			t.Fatalf("more than maxNodePuts = %d puts reached the benefactor at once", maxNodePuts)
		case <-time.After(50 * time.Millisecond):
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
