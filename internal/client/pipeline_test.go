package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/chunker"
	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/store"
)

// startCluster spins a real manager plus width benefactors for pipeline
// tests, each with the given per-node capacity (0 = unlimited).
func startCluster(t *testing.T, width int, capacity int64) (*manager.Manager, []*benefactor.Benefactor) {
	t.Helper()
	mgr, err := manager.New(manager.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	var benefs []*benefactor.Benefactor
	for i := 0; i < width; i++ {
		bf, err := benefactor.New(benefactor.Config{ManagerAddr: mgr.Addr(), Capacity: capacity})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bf.Close() })
		benefs = append(benefs, bf)
	}
	waitForBenefactors(t, mgr, width)
	return mgr, benefs
}

// waitForBenefactors blocks until the asynchronous registrations land.
func waitForBenefactors(t *testing.T, mgr *manager.Manager, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for mgr.Stats().OnlineBenefactors < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d benefactors registered", mgr.Stats().OnlineBenefactors, want)
		}
		time.Sleep(time.Millisecond)
	}
}

func fill(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*3 + seed
	}
	return b
}

// TestSingleExtendSpansMultipleQuanta verifies the reservation accounting
// fix: one Write that jumps several quanta past the reservation costs one
// MExtend RPC covering the whole gap, not one RPC per quantum.
func TestSingleExtendSpansMultipleQuanta(t *testing.T) {
	mgr, _ := startCluster(t, 1, 0)
	cl, err := New(Config{
		ManagerAddr:    mgr.Addr(),
		StripeWidth:    1,
		ChunkSize:      64 << 10,
		ReserveQuantum: 128 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	w, err := cl.Create("extend.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	// 2 MB in one call: 15 quanta past the initial 128 KB reservation.
	if _, err := w.Write(fill(2<<20, 1)); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Extends; got != 1 {
		t.Fatalf("first multi-quantum Write cost %d MExtend RPCs, want 1", got)
	}
	if w.reserved < 2<<20 {
		t.Fatalf("reserved %d bytes, want at least the written 2 MB", w.reserved)
	}
	// A second jump costs exactly one more.
	if _, err := w.Write(fill(1<<20, 2)); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Extends; got != 2 {
		t.Fatalf("after second jump: %d MExtend RPCs, want 2", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

// probeRecorder is a metadata endpoint that records the size of every
// dedup probe and answers "all present", so the hasher releases each
// batch itself and needs no upload workers.
type probeRecorder struct {
	*fakeMetadata
	batches []int
}

func (p *probeRecorder) HasChunks(_ string, ids []core.ChunkID) ([]bool, error) {
	p.batches = append(p.batches, len(ids))
	present := make([]bool, len(ids))
	for i := range present {
		present[i] = true
	}
	return present, nil
}

// TestHasherBatchesQueuedChunks pins the batching rule where it is
// deterministic: with every chunk already queued when the hasher starts,
// the queue never runs dry, so batches close only at maxProbeBatch, at a
// flush marker, and at the end of the queue — however fast SHA-1 is.
func TestHasherBatchesQueuedChunks(t *testing.T) {
	for _, c := range []struct {
		name    string
		chunks  int
		flushAt int // index of the chunk carrying a flush marker, -1 for none
		want    []int
	}{
		{"one full batch", maxProbeBatch, -1, []int{maxProbeBatch}},
		{"two full batches", 2 * maxProbeBatch, -1, []int{maxProbeBatch, maxProbeBatch}},
		{"full batch and a remainder", maxProbeBatch + 1, -1, []int{maxProbeBatch, 1}},
		{"flush marker splits a batch", maxProbeBatch, 9, []int{10, maxProbeBatch - 10}},
		{"flush marker on the last chunk", maxProbeBatch, maxProbeBatch - 1, []int{maxProbeBatch}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := &probeRecorder{fakeMetadata: newFakeMetadata()}
			cl, err := New(Config{Endpoint: rec, Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			w := &Writer{c: cl, name: "pinned.n1.t0"}
			w.cond = sync.NewCond(&w.mu)
			w.hashQ.init()
			w.growCommitChunks(c.chunks)
			for i := 0; i < c.chunks; i++ {
				buf := fill(512, byte(i))
				w.inflight += int64(len(buf))
				w.hashQ.push(chunkItem{idx: i, buf: &buf, flush: i == c.flushAt})
			}
			w.hashQ.close()
			w.hashWg.Add(1)
			go w.runHasher()
			w.hashWg.Wait()

			if !slices.Equal(rec.batches, c.want) {
				t.Fatalf("%d queued chunks were probed in batches of %v, want %v", c.chunks, rec.batches, c.want)
			}
			if w.deduped != int64(c.chunks*512) || w.inflight != 0 {
				t.Fatalf("deduped %d bytes with %d still in flight, want %d and 0", w.deduped, w.inflight, c.chunks*512)
			}
			for i, cc := range w.commitChunks {
				if cc.ID == (core.ChunkID{}) {
					t.Fatalf("chunk %d was never named", i)
				}
			}
		})
	}
}

// TestBatchedDedupProbes is the end-to-end half: through a real manager
// every chunk is probed exactly once, the second version dedups entirely
// and reads back. How many probes that takes depends on whether the
// producer or the hasher is ahead, so only the bounds that hold under any
// schedule are asserted here; TestHasherBatchesQueuedChunks pins the rule.
func TestBatchedDedupProbes(t *testing.T) {
	mgr, _ := startCluster(t, 2, 0)
	cl, err := New(Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 2,
		ChunkSize:   64 << 10,
		Incremental: true,
		BufferBytes: 64 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const chunks = 32
	data := fill(chunks*64<<10, 3)
	w, err := cl.Create("dedup.n1.t0")
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

	st := mgr.Stats()
	if st.DedupChunks != chunks {
		t.Fatalf("dedup probes covered %d chunks, want %d", st.DedupChunks, chunks)
	}
	if st.DedupBatches < 1 || st.DedupBatches > chunks {
		t.Fatalf("%d chunks took %d MHasChunks RPCs, want between 1 and %d", chunks, st.DedupBatches, chunks)
	}

	// Same content again: every chunk is a dedup hit, still batched.
	w2, err := cl.Create("dedup.n1.t1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := w2.Metrics(); m.Deduped != int64(len(data)) || m.Uploaded != 0 {
		t.Fatalf("second version: deduped %d uploaded %d, want all %d deduped", m.Deduped, m.Uploaded, len(data))
	}

	// The dedup'd version must still read back correctly.
	r, err := cl.Open("dedup.n1.t1")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if !bytes.Equal(got, data) {
		t.Fatal("readback mismatch after dedup")
	}
}

// bufTracker asserts the chunk-buffer pool discipline: every buffer handed
// out comes back exactly once, and nothing is returned that was not handed
// out.
type bufTracker struct {
	t *testing.T

	mu          sync.Mutex
	outstanding map[*[]byte]bool
	gets, puts  int
	violations  []string
}

func trackChunkBufs(t *testing.T, c *Client) *bufTracker {
	tr := &bufTracker{t: t, outstanding: make(map[*[]byte]bool)}
	c.onChunkGet = func(bp *[]byte) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.gets++
		if tr.outstanding[bp] {
			tr.violations = append(tr.violations, fmt.Sprintf("buffer %p handed out twice", bp))
		}
		tr.outstanding[bp] = true
	}
	c.onChunkPut = func(bp *[]byte) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.puts++
		if !tr.outstanding[bp] {
			tr.violations = append(tr.violations, fmt.Sprintf("buffer %p double-returned to the pool", bp))
		}
		delete(tr.outstanding, bp)
	}
	return tr
}

func (tr *bufTracker) check() {
	tr.t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, v := range tr.violations {
		tr.t.Error(v)
	}
	if len(tr.outstanding) != 0 {
		tr.t.Errorf("%d chunk buffers never returned to the pool (%d gets, %d puts)",
			len(tr.outstanding), tr.gets, tr.puts)
	}
	if tr.gets != tr.puts {
		tr.t.Errorf("pool imbalance: %d gets, %d puts", tr.gets, tr.puts)
	}
}

// TestChunkBufferLifecycleDedupHit covers the write → dedup-hit path under
// the race detector: buffers released by the dedup short-circuit must come
// back exactly once.
func TestChunkBufferLifecycleDedupHit(t *testing.T) {
	mgr, _ := startCluster(t, 2, 0)
	_ = mgr
	cl, err := New(Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 2,
		ChunkSize:   64 << 10,
		Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	data := fill(16*64<<10, 5)
	for i := 0; i < 3; i++ { // v0 uploads; v1, v2 dedup every chunk
		w, err := cl.Create("life.n1.t" + fmt.Sprint(i))
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
	tr.check()
}

// TestChunkBufferLifecycleCbCH covers the variable-size (CbCH) write path
// under the race detector: spans cut by the streaming boundary finder are
// smaller than the pooled buffer capacity, and every buffer — uploaded or
// dedup-hit — must still come back exactly once.
func TestChunkBufferLifecycleCbCH(t *testing.T) {
	mgr, _ := startCluster(t, 2, 0)
	cl, err := New(Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 2,
		Chunking:    ChunkCbCH,
		CbCH:        chunker.StreamParams{Window: 48, Bits: 12, Min: 4 << 10, Max: 64 << 10},
		Incremental: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	data := fill(16*64<<10+777, 6)
	for i := 0; i < 2; i++ { // v0 uploads; v1 dedups every span
		w, err := cl.Create("cbchlife.n1.t" + fmt.Sprint(i))
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
		if i == 1 {
			if m := w.Metrics(); m.Deduped != int64(len(data)) {
				t.Fatalf("identical rewrite deduped %d of %d bytes", m.Deduped, len(data))
			}
		}
	}
	tr.check()

	r, err := cl.Open("cbchlife.n1.t1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("CbCH readback mismatch")
	}
}

// rejectingStore fails every Put, simulating a benefactor that ran out of
// space after stripe allocation.
type rejectingStore struct{ store.Store }

func (r rejectingStore) Put(id core.ChunkID, data []byte) (bool, error) {
	return false, core.ErrNoSpace
}

// TestChunkBufferLifecycleUploadError covers the write → upload-error
// path: when a benefactor rejects chunks, the writer fails but every
// buffer still comes back exactly once.
func TestChunkBufferLifecycleUploadError(t *testing.T) {
	mgr, err := manager.New(manager.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	for i := 0; i < 2; i++ {
		bf, err := benefactor.New(benefactor.Config{
			ManagerAddr: mgr.Addr(),
			Store:       rejectingStore{store.NewMemory(0, nil)},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bf.Close() })
	}
	waitForBenefactors(t, mgr, 2)
	cl, err := New(Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 2,
		ChunkSize:   64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	w, err := cl.Create("fail.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	var writeErr error
	for i := 0; i < 8 && writeErr == nil; i++ {
		_, writeErr = w.Write(fill(2*64<<10, byte(i)))
	}
	closeErr := w.Close()
	waitErr := w.Wait()
	if writeErr == nil && closeErr == nil && waitErr == nil {
		t.Fatal("writer succeeded against full benefactors")
	}
	if !errors.Is(waitErr, core.ErrNoSpace) && !errors.Is(closeErr, core.ErrNoSpace) && !errors.Is(writeErr, core.ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace somewhere; write=%v close=%v wait=%v", writeErr, closeErr, waitErr)
	}
	tr.check()
}

// TestPartialFinalChunkRoundTrip pins the final-short-chunk path of the
// pooled pipeline.
func TestPartialFinalChunkRoundTrip(t *testing.T) {
	mgr, _ := startCluster(t, 2, 0)
	_ = mgr
	cl, err := New(Config{ManagerAddr: mgr.Addr(), StripeWidth: 2, ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	data := fill(3*64<<10+1234, 9)
	w, err := cl.Create("short.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(w, bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	tr.check()

	r, err := cl.Open("short.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("readback mismatch")
	}
}
