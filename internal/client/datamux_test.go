package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/store"
)

// TestDataMuxRoundTrip covers the pipelined data plane end to end: a
// client uploads through windowed multiplexed puts and restores through
// batched reads, the bytes come back identical, every pooled
// chunk buffer returns exactly once, and the batch path demonstrably
// served the read (it did not silently fall back to per-chunk BGets). The
// 16-chunk window refills 8 chunks at a time, so every refill of the
// 48-chunk image puts at least two chunks on each of the three nodes and
// no chunk travels alone as a plain BGet.
func TestDataMuxRoundTrip(t *testing.T) {
	mgr, _ := startCluster(t, 3, 0)
	cl, err := New(Config{
		ManagerAddr:    mgr.Addr(),
		StripeWidth:    3,
		ChunkSize:      32 << 10,
		ReadAheadBytes: 16 * 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	data := fill(47*32<<10+999, 11) // 48 chunks, final one short
	w, err := cl.Create("mux.n1.t0")
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
	tr.check()

	r, err := cl.Open("mux.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("readback mismatch over the pipelined data plane")
	}
	if r.BytesFetched() != int64(len(data)) {
		t.Fatalf("fetched %d bytes, want %d", r.BytesFetched(), len(data))
	}
	if r.BytesBatched() != int64(len(data)) {
		t.Fatalf("batched reads served %d of %d bytes; the scheduler fell back to per-chunk fetches",
			r.BytesBatched(), len(data))
	}
}

// TestDataMuxSerialInterop pins that the write window is a scheduling
// choice, not a format change. A stop-and-wait writer (BufferBytes =
// ChunkSize: one chunk in the whole pipeline) and the default windowed
// writer store the same image as the same chunk frames on the benefactors
// and as consecutive versions of one dataset sharing every chunk; and an
// image written by either restores byte-identically through the other.
func TestDataMuxSerialInterop(t *testing.T) {
	mgr, benefs := startCluster(t, 2, 0)
	const chunk = 32 << 10
	mk := func(bufferBytes int64) *Client {
		cl, err := New(Config{
			ManagerAddr: mgr.Addr(),
			StripeWidth: 2,
			ChunkSize:   chunk,
			BufferBytes: bufferBytes,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	windowed, serial := mk(0), mk(chunk)
	// stored is the set of chunk frames the benefactors accepted. The two
	// writers may be handed the stripe in a different rotation, so the
	// comparison is by content name, not by node.
	stored := func() map[core.ChunkID]int64 {
		ids := make(map[core.ChunkID]int64)
		for _, b := range benefs {
			for _, id := range b.Store().Inventory() {
				ids[id], _ = b.Store().Size(id)
			}
		}
		return ids
	}
	var first map[core.ChunkID]int64
	same := make([]byte, 17*32<<10+33)
	rand.New(rand.NewSource(19)).Read(same) // every chunk distinct
	for i, writer := range []*Client{serial, windowed} {
		mustStore(t, writer, fmt.Sprintf("same.n1.t%d", i), same)
		got := stored()
		if first == nil {
			first = got
		}
		if len(got) != 18 || !reflect.DeepEqual(got, first) {
			t.Fatalf("after writer %d the benefactors hold %d distinct chunks; both writers must put the same 18 frames", i, len(got))
		}
	}
	hist, err := serial.History("same.n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Versions) != 2 || hist.Versions[1].SharedChunks != 18 {
		t.Fatalf("history %+v: want 2 versions, the windowed writer's sharing all 18 chunks with the serial one's", hist.Versions)
	}

	for i, pair := range []struct{ writer, reader *Client }{
		{writer: windowed, reader: serial},
		{writer: serial, reader: windowed},
	} {
		name := fmt.Sprintf("interop.n1.t%d", i)
		data := fill(17*32<<10+33, byte(20+i))
		w, err := pair.writer.Create(name)
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
		r, err := pair.reader.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round %d: cross-transport readback mismatch", i)
		}
	}
}

// TestPipelinedUploadFaultSweep arms the wire.send faultpoint at
// escalating trigger counts while a pipelined upload window is in
// flight. The invariant under every fault placement: either the session
// fails (and every pooled chunk buffer still returns exactly once), or
// it commits — in which case every acked chunk must be readable and the
// restored bytes identical. A send fault mid-window must never produce a
// committed version with a hole in it.
func TestPipelinedUploadFaultSweep(t *testing.T) {
	mgr, _ := startCluster(t, 2, 0)
	defer faultpoint.Reset()

	data := fill(24*32<<10, 31) // 24 chunks across a 2-wide stripe
	for count := 1; count <= 5; count++ {
		count := count
		t.Run(fmt.Sprintf("count=%d", count), func(t *testing.T) {
			cl, err := New(Config{
				ManagerAddr: mgr.Addr(),
				StripeWidth: 2,
				ChunkSize:   32 << 10,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			tr := trackChunkBufs(t, cl)

			name := fmt.Sprintf("sweep.n1.t%d", count)
			w, err := cl.Create(name)
			if err != nil {
				t.Fatal(err) // faultpoint not armed yet: Create must work
			}
			if err := faultpoint.Enable("wire.send", faultpoint.Config{
				Mode: faultpoint.ModeError, Count: count,
			}); err != nil {
				t.Fatal(err)
			}
			_, writeErr := w.Write(data)
			closeErr := w.Close()
			waitErr := w.Wait()
			faultpoint.Disable("wire.send")
			tr.check()

			if writeErr != nil || closeErr != nil || waitErr != nil {
				// Session failed: the version must not exist.
				if _, err := cl.Open(name, OpenOptions{Latest: true}); err == nil {
					t.Fatalf("failed session (write=%v close=%v wait=%v) left a committed version",
						writeErr, closeErr, waitErr)
				}
				return
			}
			// Session survived the faults (e.g. a mux retry absorbed them):
			// every acked chunk must be present and intact.
			r, err := cl.Open(name)
			if err != nil {
				t.Fatalf("committed session not openable: %v", err)
			}
			got, err := r.ReadAll()
			r.Close()
			if err != nil {
				t.Fatalf("committed session not fully readable: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("committed version differs from written bytes after fault sweep")
			}
		})
	}
}

// TestReadSurvivesBenefactorBatchBound restores through a benefactor that
// answers only part of a batch: a 2-replica image whose preferred replica
// has lost some of its chunks, so each batch sent to it answers -1 for
// those slots. They must come back through per-chunk BGets from the other
// replica — byte-identical, every chunk fetched exactly once, and the
// batches serving exactly the bytes the preferred replicas still held.
func TestReadSurvivesBenefactorBatchBound(t *testing.T) {
	mgr, benefs := startCluster(t, 2, 0)
	const chunk, chunks = 2 << 10, 96
	cl, err := New(Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 2,
		ChunkSize:   chunk,
		Replication: 2,
		Semantics:   core.WritePessimistic, // Wait returns once both replicas exist
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := make([]byte, chunks*chunk)
	rand.New(rand.NewSource(5)).Read(data) // every chunk distinct
	mustStore(t, cl, "bound.n1.t0", data)

	r, err := cl.Open("bound.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	// Nothing is fetched before the first Read. The reader prefers
	// Locations[i][i%n] for chunk i: drop every third chunk from that
	// replica only.
	byID := make(map[core.NodeID]store.Store)
	for _, b := range benefs {
		byID[b.ID()] = b.Store()
	}
	m := r.Map()
	var lost int64
	for i := 0; i < chunks; i += 3 {
		locs := m.Locations[i]
		if len(locs) != 2 {
			t.Fatalf("chunk %d has %d replicas, want 2", i, len(locs))
		}
		if err := byID[locs[i%2]].Delete(m.Chunks[i].ID); err != nil {
			t.Fatal(err)
		}
		lost += m.Chunks[i].Size
	}

	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("restore through partially answered batches is not byte-identical")
	}
	if r.BytesFetched() != int64(len(data)) {
		t.Fatalf("fetched %d bytes for a %d-byte image", r.BytesFetched(), len(data))
	}
	if want := int64(len(data)) - lost; r.BytesBatched() != want {
		t.Fatalf("batches served %d bytes, want exactly the %d bytes the preferred replicas still held",
			r.BytesBatched(), want)
	}
}
