package grid

import (
	"bytes"
	"io"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/manager"
)

// TestBatchedReadFailsOverMidBatchReplicaDeath kills a replica while the
// reader has batched BGetBatch requests addressed to it ahead. The
// invariant under test is per-chunk — not per-batch — failover: chunks the dead node's batches could not serve are re-fetched
// individually from the surviving replica, chunks any batch did serve are
// never fetched twice (BytesFetched stays exactly the file size), and the
// restored bytes are identical.
func TestBatchedReadFailsOverMidBatchReplicaDeath(t *testing.T) {
	c := testCluster(t, 3, manager.Config{
		ReplicationInterval: 50 * time.Millisecond,
		DefaultReplication:  2,
		HeartbeatInterval:   100 * time.Millisecond,
	})
	cl := testClient(t, c, client.Config{
		ChunkSize:      16 << 10,
		Replication:    2,
		StripeWidth:    2,
		ReadAheadBytes: 8 * 16 << 10, // keep the prefetch window behind the kill point
	})
	data := payload(73, 512<<10) // 32 chunks
	writeFile(t, cl, "muxfo.n1.t0", data)

	// Wait until every chunk has a second replica to fall over to.
	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := cl.Stat("muxfo.n1")
		if err != nil {
			t.Fatal(err)
		}
		if info.Versions[0].Replication >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication stuck at %d", info.Versions[0].Replication)
		}
		time.Sleep(20 * time.Millisecond)
	}

	r, err := cl.Open("muxfo.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Consume the head, then kill the node the final chunk's batch will
	// be addressed to. The reader rotates each chunk's replica preference
	// by its index, so the batch target for chunk i is Locations[i][i%n].
	head := make([]byte, 64<<10)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	m := r.Map()
	last := len(m.Locations) - 1
	stopNode(t, c, m.Locations[last][last%len(m.Locations[last])])

	rest, err := r.ReadAll()
	if err != nil {
		t.Fatalf("batched read after replica death: %v", err)
	}
	got := append(head, rest...)
	if !bytes.Equal(got, data) {
		t.Fatalf("failover read corrupted: %d bytes, want %d", len(got), len(data))
	}
	// Per-chunk failover must not re-fetch chunks a batch already served:
	// each chunk counts exactly once, so the total is exactly the file.
	if r.BytesFetched() != int64(len(data)) {
		t.Fatalf("fetched %d bytes for a %d-byte file: some chunk was fetched twice (per-batch failover?)",
			r.BytesFetched(), len(data))
	}
	// And batching must have engaged at all — on the surviving replicas
	// if nowhere else.
	if r.BytesBatched() == 0 {
		t.Fatal("no bytes served by BGetBatch; the batch scheduler never engaged")
	}
}
