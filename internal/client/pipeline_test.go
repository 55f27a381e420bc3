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
	"stdchk/internal/proto"
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
	online := func() int64 { return mgr.Stats().Counters[proto.CtrBenefactorsOnline].Value }
	for online() < int64(want) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d benefactors registered", online(), want)
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
	if got := mgr.Stats().Ops[proto.MExtend].Count; got != 1 {
		t.Fatalf("first multi-quantum Write cost %d MExtend RPCs, want 1", got)
	}
	if w.reserved < 2<<20 {
		t.Fatalf("reserved %d bytes, want at least the written 2 MB", w.reserved)
	}
	// A second jump costs exactly one more.
	if _, err := w.Write(fill(1<<20, 2)); err != nil {
		t.Fatal(err)
	}
	if got := mgr.Stats().Ops[proto.MExtend].Count; got != 2 {
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

func (p *probeRecorder) Call(op, name string, req, resp interface{}) error {
	if op != proto.MHasChunks {
		return p.fakeMetadata.Call(op, name, req, resp)
	}
	ids := req.(*proto.HasReq).IDs
	p.batches = append(p.batches, len(ids))
	present := make([]bool, len(ids))
	for i := range present {
		present[i] = true
	}
	resp.(*proto.HasResp).Present = present
	return nil
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
			cl, err := New(Config{endpoint: rec, Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			w := &Writer{c: cl, name: "pinned.n1.t0"}
			w.cond.L = &w.mu
			w.hashQ.init(0)
			w.growCommitChunks(c.chunks)
			for i := 0; i < c.chunks; i++ {
				buf := cl.getChunkBuf(512)
				buf.b = append(buf.b, fill(512, byte(i))...)
				w.inflight += int64(len(buf.b))
				ch := chunk{data: buf.b, buf: buf, cost: int64(len(buf.b))}
				w.hashQ.push(chunkItem{idx: i, chunk: ch, flush: i == c.flushAt})
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

// TestFixedChunkProbeBatches pins where the stage closes probe batches
// under fixed chunks: at no segment boundary, so a segment holding one
// 1 MB chunk does not cost one probe per chunk. The hasher starts only
// once the stage has cut every chunk and closed its queue, so batches
// close only at flush markers, at maxProbeBatch and at the end.
func TestFixedChunkProbeBatches(t *testing.T) {
	for _, c := range []struct {
		name      string
		chunkSize int64
		segments  int
		want      []int
	}{
		{"1 MB chunks, one per segment", 1 << 20, 4, []int{4}},
		{"64 KB chunks, 16 per segment", 64 << 10, 3, []int{maxProbeBatch, 16}},
	} {
		t.Run(c.name, func(t *testing.T) {
			rec := &probeRecorder{fakeMetadata: newFakeMetadata()}
			cl, err := New(Config{endpoint: rec, Incremental: true, ChunkSize: c.chunkSize})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			w := &Writer{
				c: cl, name: "pinned.n1.t0", protocol: SlidingWindow, copyAdmits: true,
				chunkSize: c.chunkSize, segLen: segmentSize,
				failed: make(chan struct{}), done: make(chan struct{}),
			}
			w.cond.L = &w.mu
			w.hashQ.init(0)
			w.stageQ.init(c.segments)
			for i := 0; i < c.segments; i++ {
				seg := cl.getSegment(segmentSize)
				copy(seg.b, fill(segmentSize, byte(i)))
				w.inflight += segmentSize
				w.stageQ.push(segRange{seg: seg, end: segmentSize})
			}
			w.stageQ.close()
			w.hashWg.Add(1)
			go w.runStage()
			for closed := false; !closed; time.Sleep(time.Millisecond) {
				w.hashQ.mu.Lock()
				closed = w.hashQ.closed
				w.hashQ.mu.Unlock()
			}
			w.runHasher()
			<-w.done // the fake manager fails the commit; only the probes matter

			if !slices.Equal(rec.batches, c.want) {
				t.Fatalf("%d segments of %d-byte chunks were probed in batches of %v, want %v",
					c.segments, c.chunkSize, rec.batches, c.want)
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
	if probes := st.Ops[proto.MHasChunks].Count; probes < 1 || probes > chunks {
		t.Fatalf("%d chunks took %d MHasChunks RPCs, want between 1 and %d", chunks, probes, chunks)
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

// bufTracker asserts the write path's pool discipline: every chunk buffer
// and staging segment handed out comes back exactly once, and nothing is
// returned that was not handed out. It also follows the pooled capacity
// outstanding (pinned) and its peak.
type bufTracker struct {
	t *testing.T

	mu           sync.Mutex
	outstanding  map[*pooledBuf]bool
	bufs, segs   int // chunk buffers and segments handed out
	back         int // buffers of either kind returned
	pinned, peak int64
	violations   []string
}

func trackChunkBufs(t *testing.T, c *Client) *bufTracker {
	tr := &bufTracker{t: t, outstanding: make(map[*pooledBuf]bool)}
	c.onChunkGet, c.onChunkPut = tr.take, tr.give
	c.onSegment = func(seg *pooledBuf, taken bool) {
		if taken {
			tr.take(seg)
		} else {
			tr.give(seg)
		}
	}
	return tr
}

func (tr *bufTracker) take(pb *pooledBuf) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if pb.seg {
		tr.segs++
	} else {
		tr.bufs++
	}
	if tr.outstanding[pb] {
		tr.violations = append(tr.violations, fmt.Sprintf("buffer %p handed out twice", pb))
	}
	tr.outstanding[pb] = true
	tr.pinned += int64(cap(pb.b))
	tr.peak = max(tr.peak, tr.pinned)
}

func (tr *bufTracker) give(pb *pooledBuf) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.back++
	if !tr.outstanding[pb] {
		tr.violations = append(tr.violations, fmt.Sprintf("buffer %p double-returned to the pool", pb))
	}
	delete(tr.outstanding, pb)
	tr.pinned -= int64(cap(pb.b))
}

// counts returns how many chunk buffers and segments were handed out.
func (tr *bufTracker) counts() (bufs, segs int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.bufs, tr.segs
}

func (tr *bufTracker) check() {
	tr.t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, v := range tr.violations {
		tr.t.Error(v)
	}
	if len(tr.outstanding) != 0 {
		tr.t.Errorf("%d buffers never returned to the pool (%d chunk buffers and %d segments out, %d back)",
			len(tr.outstanding), tr.bufs, tr.segs, tr.back)
	}
	if tr.bufs+tr.segs != tr.back {
		tr.t.Errorf("pool imbalance: %d chunk buffers and %d segments out, %d back", tr.bufs, tr.segs, tr.back)
	}
}

// allProtocols is every write protocol, for tests that hold for each.
var allProtocols = []Protocol{SlidingWindow, IncrementalWrite, CompleteLocalWrite}

// TestChunkBufferLifecycleDedupHit covers the write → dedup-hit path under
// the race detector, for each protocol: the staging segments released by
// the dedup short-circuit come back exactly once, and no goroutine of the
// writer outlives Wait. 48 KB chunks do not divide a segment, so a segment
// holds 21 of them and none is a carry.
func TestChunkBufferLifecycleDedupHit(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			mgr, _ := startCluster(t, 2, 0)
			cl, err := New(Config{
				ManagerAddr:   mgr.Addr(),
				StripeWidth:   2,
				ChunkSize:     48 << 10,
				Incremental:   true,
				Protocol:      p,
				TempFileBytes: 512 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			tr := trackChunkBufs(t, cl)

			data := fill(3*segmentSize+777, 5)
			mustStore(t, cl, "life.n1.t0", data) // v0 uploads and warms the pool
			baseline := settledGoroutines()
			for i := 1; i < 3; i++ { // v1, v2 dedup every chunk
				w := mustStore(t, cl, fmt.Sprintf("life.n1.t%d", i), data)
				if m := w.Metrics(); m.Deduped != int64(len(data)) {
					t.Fatalf("identical rewrite deduped %d of %d bytes", m.Deduped, len(data))
				}
				writerGoroutinesGone(t, baseline)
			}
			tr.check()
			if carries, segs := tr.counts(); segs == 0 || carries != 0 {
				t.Fatalf("%s took %d staging segments and %d carries; want some and none", p, segs, carries)
			}
		})
	}
}

// TestChunkBufferLifecycleCbCH covers the variable-size (CbCH) write path
// under the race detector, for each protocol: chunks are slices of staging
// segments, spans that cross a segment boundary are carries, and every
// segment and carry — uploaded or dedup-hit — comes back exactly once,
// with no goroutine of the writer left after Wait.
func TestChunkBufferLifecycleCbCH(t *testing.T) {
	for _, p := range allProtocols {
		t.Run(p.String(), func(t *testing.T) {
			mgr, _ := startCluster(t, 2, 0)
			cl, err := New(Config{
				ManagerAddr:   mgr.Addr(),
				StripeWidth:   2,
				Chunking:      ChunkCbCH,
				CbCH:          chunker.StreamParams{Window: 48, Bits: 12, Min: 4 << 10, Max: 64 << 10},
				Incremental:   true,
				Protocol:      p,
				TempFileBytes: 512 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			tr := trackChunkBufs(t, cl)

			data := randBytes(3*segmentSize+777, 6)
			mustStore(t, cl, "cbchlife.n1.t0", data) // v0 uploads and warms the pool
			baseline := settledGoroutines()
			w := mustStore(t, cl, "cbchlife.n1.t1", data) // v1 dedups every span
			if m := w.Metrics(); m.Deduped != int64(len(data)) {
				t.Fatalf("identical rewrite deduped %d of %d bytes", m.Deduped, len(data))
			}
			writerGoroutinesGone(t, baseline)
			tr.check()
			if carries, segs := tr.counts(); segs < 2*4 || carries == 0 {
				t.Fatalf("two 3 MB images took %d segments and %d carries; want at least 8 and 1", segs, carries)
			}

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
		})
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
// buffer — staging segments and CbCH carries — still comes
// back exactly once, whether the failure reaches Write first or only
// Close and Wait, and no goroutine of the writer outlives Wait.
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
	cbch := chunker.StreamParams{Window: 48, Bits: 12, Min: 4 << 10, Max: 64 << 10}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"fixed sliding-window", Config{ChunkSize: 64 << 10}},
		{"cbch sliding-window", Config{Chunking: ChunkCbCH, CbCH: cbch}},
		{"cbch incremental", Config{Chunking: ChunkCbCH, CbCH: cbch, Protocol: IncrementalWrite, TempFileBytes: 512 << 10}},
		{"fixed complete-local", Config{ChunkSize: 48 << 10, Protocol: CompleteLocalWrite}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := settledGoroutines()
			cfg := tc.cfg
			cfg.ManagerAddr, cfg.StripeWidth = mgr.Addr(), 2
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tr := trackChunkBufs(t, cl)

			w, err := cl.Create("fail.n1.t0")
			if err != nil {
				t.Fatal(err)
			}
			var writeErr error
			for i := 0; i < 8 && writeErr == nil; i++ {
				_, writeErr = w.Write(randBytes(512<<10, int64(i)))
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
			// The failed puts dialed the pool; its goroutines go with the client.
			cl.Close()
			writerGoroutinesGone(t, baseline)
		})
	}
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

// TestChunkBufferLifecycleOpenCarry fails a staged session while the span
// that crosses a segment boundary is still open in its carry: Close and
// Wait must still hand the carry back, once.
func TestChunkBufferLifecycleOpenCarry(t *testing.T) {
	mgr, _ := startCluster(t, 2, 0)
	cl, err := New(Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 2,
		Chunking:    ChunkCbCH,
		CbCH:        chunker.StreamParams{Window: 48, Bits: 12, Min: 4 << 10, Max: 64 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	// A zero run offers no boundary, so the span open at the end of the
	// first segment runs on into the second, whose one byte leaves it open.
	data := randBytes(segmentSize+1, 7)
	clear(data[segmentSize-16<<10:])
	w, err := cl.Create("carry.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the stage to open a carry", func() bool {
		carries, _ := tr.counts()
		return carries == 1
	})
	w.fail(errors.New("injected failure"))
	if err := w.Close(); err == nil {
		t.Fatal("Close of a failed session returned nil")
	}
	if err := w.Wait(); err == nil {
		t.Fatal("Wait of a failed session returned nil")
	}
	tr.check()
}
