package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"stdchk/internal/benefactor"
	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/store"
)

// refusingStore refuses to store one chunk, as a donor whose verify-on-put
// caught a corrupt body does.
type refusingStore struct {
	store.Store
	refuse core.ChunkID
}

func (s refusingStore) Put(id core.ChunkID, data []byte) (bool, error) {
	if id == s.refuse {
		return false, fmt.Errorf("put %s: %w", id.Short(), core.ErrIntegrity)
	}
	return s.Store.Put(id, data)
}

// putRequests totals the put requests the donors' op tables recorded: the
// BPuts and the BPutBatches.
func putRequests(t *testing.T, cl *Client, benefs []*benefactor.Benefactor) (puts, batches int64) {
	t.Helper()
	for _, b := range benefs {
		var st proto.StatsResp
		if _, err := cl.dataPool.Call(b.Addr(), proto.BStats, nil, nil, &st); err != nil {
			t.Fatal(err)
		}
		puts += st.Ops[proto.BPut].Count
		batches += st.Ops[proto.BPutBatch].Count
	}
	return puts, batches
}

// smallRun is what smallCheckpoint leaves: the session's error from Wait,
// the put requests it cost, its image and the image's chunk IDs, and the
// cluster.
type smallRun struct {
	err           error
	puts, batches int64
	image         []byte
	ids           []core.ChunkID
	cl            *Client
	benefs        []*benefactor.Benefactor
}

// smallCheckpoint runs the meta_small shape — a 64 KB image in 8 KB chunks
// over 4 donors, each with the store stores makes — with every uploader
// held, by the onGather hook, until the whole image is queued: each
// uploader holds the chunk it woke for and its queue the one behind it.
// Then it lets them go, waits for the session and checks that it left no
// open manager session, reservation, pooled buffer or goroutine behind.
func smallCheckpoint(t *testing.T, stores func(ids []core.ChunkID) store.Store) (run smallRun) {
	const chunk, width = 8 << 10, 4
	run.image = fill(8*chunk, 9)
	for off := 0; off < len(run.image); off += chunk {
		run.image[off] = byte(off / chunk) // fill repeats every 256 bytes
		run.ids = append(run.ids, core.HashChunk(run.image[off:off+chunk]))
	}
	mgr, err := manager.New(manager.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	for i := 0; i < width; i++ {
		b, err := benefactor.New(benefactor.Config{ManagerAddr: mgr.Addr(), Store: stores(run.ids)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		run.benefs = append(run.benefs, b)
	}
	waitForBenefactors(t, mgr, width)
	cl, err := New(Config{ManagerAddr: mgr.Addr(), StripeWidth: width, ChunkSize: chunk, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	tr := trackChunkBufs(t, cl)
	mustStore(t, cl, "small.n1.t0", fill(8*chunk, 1)) // dials the pool
	puts0, batches0 := putRequests(t, cl, run.benefs)
	baseline := settledGoroutines()

	var held atomic.Int32
	gate := make(chan struct{})
	cl.onGather = func() {
		held.Add(1)
		<-gate
	}
	w, err := cl.Create("small.n1.t1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(run.image); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "every uploader to hold a chunk with one queued behind it", func() bool {
		if held.Load() != width {
			return false
		}
		for _, worker := range w.workers {
			if len(worker.ch) != 1 {
				return false
			}
		}
		return true
	})
	close(gate)
	closeErr := w.Close()
	run.err = w.Wait()
	if closeErr != nil && !errors.Is(closeErr, core.ErrIntegrity) {
		t.Errorf("Close: %v", closeErr)
	}
	run.puts, run.batches = putRequests(t, cl, run.benefs)
	run.puts, run.batches, run.cl = run.puts-puts0, run.batches-batches0, cl
	checkFailedSessionLeftNothing(t, mgr, cl, tr, baseline)
	return run
}

// TestSmallCheckpointIsOnePutPerDonor pins the batching of the meta_small
// shape: two chunks bound for each of 4 donors, both queued when its
// uploader goes, cost that donor one put request — 4 for the checkpoint,
// not 8 — and every chunk is stored once and restores byte for byte.
func TestSmallCheckpointIsOnePutPerDonor(t *testing.T) {
	run := smallCheckpoint(t, func([]core.ChunkID) store.Store { return store.NewMemory(0, nil) })
	if run.err != nil {
		t.Fatal(run.err)
	}
	if run.puts+run.batches != 4 || run.batches != 4 {
		t.Errorf("the checkpoint cost %d BPut and %d BPutBatch requests; want 4 batches of two chunks", run.puts, run.batches)
	}
	for _, id := range run.ids {
		copies := 0
		for _, b := range run.benefs {
			if b.Store().Has(id) {
				copies++
			}
		}
		if copies != 1 {
			t.Errorf("chunk %s is stored %d times, want once", id.Short(), copies)
		}
	}
	r, err := run.cl.Open("small.n1.t1")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, run.image) {
		t.Fatalf("restore: %d bytes, %v; want the image", len(got), err)
	}
}

// TestBatchedPutRefusalFailsSession: a donor refuses the second chunk of a
// batch with core.ErrIntegrity. The session fails with that error, commits
// nothing, and releases every chunk exactly once (checked by
// smallCheckpoint, with the abort of the manager session and the writer's
// goroutines).
func TestBatchedPutRefusalFailsSession(t *testing.T) {
	run := smallCheckpoint(t, func(ids []core.ChunkID) store.Store {
		// Chunks 1 and 5 go to one donor, in one batch.
		return refusingStore{Store: store.NewMemory(0, nil), refuse: ids[5]}
	})
	if !errors.Is(run.err, core.ErrIntegrity) {
		t.Fatalf("Wait returned %v; want core.ErrIntegrity", run.err)
	}
	if run.batches == 0 {
		t.Fatal("no batch was sent: the refusal was not of a batched chunk")
	}
	if _, err := run.cl.Open("small.n1.t1", OpenOptions{Latest: true}); err == nil {
		t.Fatal("the failed session left a committed version")
	}
}
