package grid

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/wire"
)

// TestManyChunkCheckpointCommits writes one version of 12,000 chunks —
// past where a JSON CommitReq (≈124 B a chunk) outgrew the frame header —
// and restores it byte for byte, with a map replica pushed to every stripe
// node on the way, so the commit, the map fetch and the map replica all
// carry the full chunk list.
func TestManyChunkCheckpointCommits(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	const chunks, chunkSize = 12000, 512
	cl := testClient(t, c, client.Config{StripeWidth: 4, ChunkSize: chunkSize, Replication: 1, PushMapReplicas: true})
	data := payload(20, chunks*chunkSize)
	writeFile(t, cl, "many.n1.t0", data)
	if n := counter(t, c.Stats(), "catalog.chunks"); n != chunks {
		t.Fatalf("manager indexed %d chunks, want %d", n, chunks)
	}
	if got := readFile(t, cl, "many.n1.t0"); !bytes.Equal(got, data) {
		t.Fatalf("restored %d bytes, want %d; content mismatch", len(got), len(data))
	}
	for _, b := range c.Benefactors {
		conn, err := wire.Dial(b.Addr(), nil)
		if err != nil {
			t.Fatal(err)
		}
		var replicas proto.MapListResp
		_, err = conn.Call(proto.BMapList, nil, nil, &replicas)
		conn.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(replicas.Maps) != 1 || len(replicas.Maps[0].Map.Chunks) != chunks {
			t.Fatalf("benefactor %s holds %d map replicas, want one of %d chunks", b.ID(), len(replicas.Maps), chunks)
		}
	}
}

// TestLargeInventoryDonorRegisters: a donor holding more chunks than one
// registration can list still joins (it used to fail its announce once a
// second for good, the inventory having outgrown the frame header), has
// the replicas it lists re-adopted, and a GC round pages through the whole
// inventory. The donor ends up holding exactly the chunks the manager
// references, and serves the checkpoint alone.
func TestLargeInventoryDonorRegisters(t *testing.T) {
	c := testCluster(t, 1, manager.Config{ReplicationInterval: time.Hour})
	cl := testClient(t, c, client.Config{StripeWidth: 1, ChunkSize: 8 << 10, Replication: 1})
	data := payload(21, 64<<10)
	writeFile(t, cl, "big.n1.t0", data)

	// The new donor's disk: a copy of every committed chunk, under
	// MaxRegisterChunks+1 chunks nobody references.
	st := store.NewMemory(0, nil)
	first := c.Benefactors[0].Store()
	live := first.Inventory()
	for _, id := range live {
		b, err := first.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Put(id, b); err != nil {
			t.Fatal(err)
		}
	}
	const junk = proto.MaxRegisterChunks + 1
	for i := 0; i < junk; i++ {
		b := binary.BigEndian.AppendUint64(nil, uint64(i))
		if _, err := st.Put(core.HashChunk(b), b); err != nil {
			t.Fatal(err)
		}
	}

	donor, err := benefactor.New(benefactor.Config{
		ID: "hoarder", Store: st, ManagerAddr: c.Manager.Addr(),
		GCInterval: time.Hour, GCGrace: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	if err := c.AwaitOnline(2, 10*time.Second); err != nil {
		t.Fatalf("the large-inventory donor never registered: %v", err)
	}
	if n := counter(t, c.Stats(), "benefactors.total"); n != 2 {
		t.Fatalf("%d benefactors registered, want 2", n)
	}
	// The node is online before the manager has walked its inventory.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		n := counter(t, c.Stats(), "repair.reconciled")
		if n == int64(len(live)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d locations reconciled at registration, want %d", n, len(live))
		}
	}

	time.Sleep(5 * time.Millisecond) // past GCGrace: every chunk is a candidate
	deleted, err := donor.CollectGarbage()
	if err != nil {
		t.Fatal(err)
	}
	if deleted != junk || st.Len() != len(live) {
		t.Fatalf("GC deleted %d chunks and left %d, want %d deleted and %d left", deleted, st.Len(), junk, len(live))
	}

	if err := c.StopBenefactor(0); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, cl, "big.n1.t0"); !bytes.Equal(got, data) {
		t.Fatal("checkpoint not restorable from the reconciled donor alone")
	}
}

// storedThenHeld is a store whose Put lands the chunk and then stalls:
// the benefactor is left mid-put, chunk stored, handler not yet returned.
type storedThenHeld struct {
	store.Store
	stored  chan struct{}
	release chan struct{}
}

func (s storedThenHeld) Put(id core.ChunkID, data []byte) (bool, error) {
	retained, err := s.Store.Put(id, data)
	close(s.stored)
	<-s.release
	return retained, err
}

// TestGCSparesUploadInFlight runs a GC round while a put is between
// "stored" and "acknowledged". The chunk is uncommitted, so the manager
// calls it deletable if asked; the grace period must keep the benefactor
// from asking. (The 12,000 puts of TestManyChunkCheckpointCommits, racing
// a 200 ms GC ticker, lost a chunk this way about once in fifty runs.)
func TestGCSparesUploadInFlight(t *testing.T) {
	c := testCluster(t, 1, manager.Config{})
	st := storedThenHeld{Store: store.NewMemory(0, nil), stored: make(chan struct{}), release: make(chan struct{})}
	donor, err := benefactor.New(benefactor.Config{
		ID: "mid-put", Store: st, ManagerAddr: c.Manager.Addr(),
		GCInterval: time.Hour, GCGrace: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer donor.Close()
	if err := c.AwaitOnline(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	conn, err := wire.Dial(donor.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	data := payload(22, 8<<10)
	id := core.HashChunk(data)
	acked := make(chan error, 1)
	go func() {
		_, err := conn.Call(proto.BPut, proto.PutReq{ID: id}, data, nil)
		acked <- err
	}()
	<-st.stored
	deleted, err := donor.CollectGarbage()
	close(st.release)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	if deleted != 0 || !st.Has(id) {
		t.Fatalf("GC deleted %d chunks; the chunk being uploaded survived: %v", deleted, st.Has(id))
	}
}
