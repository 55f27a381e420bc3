package client

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/store"
)

// faultStore is a benefactor's chunk store that flips the first byte of
// every chunk marked corrupt as it serves it, so the reader's hash check
// refuses that copy; the stored bytes stay intact.
type faultStore struct {
	store.Store
	mu      sync.Mutex
	corrupt map[core.ChunkID]bool
}

func (s *faultStore) GetInto(id core.ChunkID, dst []byte) ([]byte, error) {
	data, err := s.Store.GetInto(id, dst)
	s.mu.Lock()
	bad := s.corrupt[id]
	s.mu.Unlock()
	if err == nil && bad && len(data) > 0 {
		data[0] ^= 0xff
	}
	return data, err
}

// bodyTracker follows batch reply bodies through the client's test hook:
// every body taken must be returned to the wire pool exactly once.
type bodyTracker struct {
	mu         sync.Mutex
	live       map[*byte]int // first byte of each live body -> its length
	liveBytes  int
	peakBytes  int
	taken      int
	violations []string
}

func trackBatchBodies(c *Client) *bodyTracker {
	tr := &bodyTracker{live: make(map[*byte]int)}
	c.onBatchBody = func(body []byte, taken bool) {
		key := &body[:1][0]
		tr.mu.Lock()
		defer tr.mu.Unlock()
		_, live := tr.live[key]
		switch {
		case taken && live:
			tr.violations = append(tr.violations, fmt.Sprintf("body %p taken while live", key))
		case !taken && !live:
			tr.violations = append(tr.violations, fmt.Sprintf("body %p returned twice or never taken", key))
		case taken:
			tr.taken++
			tr.live[key] = len(body)
			tr.liveBytes += len(body)
			tr.peakBytes = max(tr.peakBytes, tr.liveBytes)
		default:
			delete(tr.live, key)
			tr.liveBytes -= len(body)
		}
	}
	return tr
}

// settle waits until no body is live — a closed reader's drainers return
// theirs asynchronously — and reports what the restore did to the pool.
func (tr *bodyTracker) settle(t *testing.T) (taken, peakBytes int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tr.mu.Lock()
		live, liveBytes := len(tr.live), tr.liveBytes
		taken, peakBytes = tr.taken, tr.peakBytes
		violations := tr.violations
		tr.mu.Unlock()
		for _, v := range violations {
			t.Error(v)
		}
		if live == 0 {
			return taken, peakBytes
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d batch reply bodies (%d bytes) never returned to the wire pool", live, liveBytes)
		}
		time.Sleep(time.Millisecond)
	}
}

// replicaOf maps a chunk index to the store and benefactor of the replica
// the reader asks first.
type replicaOf func(i int) (*faultStore, *benefactor.Benefactor)

// TestBatchBodyLifetime restores through batches that go wrong in each way
// a reply can — a slot answered -1, a slot that fails its hash check, a
// request that fails in transport — and through a reader closed with
// chunks still pending. Chunks are served in place from their batch reply,
// so each reply body is shared by every chunk it carries: it must go back
// to the wire pool exactly once, after its last chunk, and no later than
// the reader's Close. Because a body stays pinned until its last chunk is
// consumed, the bodies live at once never exceed about two read-ahead
// windows: the window in flight plus the consumed part of the refill the
// application is reading.
func TestBatchBodyLifetime(t *testing.T) {
	const (
		chunk  = 4 << 10
		chunks = 96
		ahead  = 16 * chunk // each refill puts several chunks on each node
	)
	for _, tc := range []struct {
		name string
		// damage runs once the map is known.
		damage func(t *testing.T, m *core.ChunkMap, preferred replicaOf)
		// readBytes stops the restore early and closes the reader (0 =
		// read to the end).
		readBytes int
	}{
		{name: "clean"},
		{name: "unserved slot", damage: func(t *testing.T, m *core.ChunkMap, preferred replicaOf) {
			for i := 0; i < chunks; i += 3 {
				st, _ := preferred(i)
				if err := st.Delete(m.Chunks[i].ID); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{name: "hash mismatch", damage: func(t *testing.T, m *core.ChunkMap, preferred replicaOf) {
			for i := 0; i < chunks; i += 3 {
				st, _ := preferred(i)
				st.mu.Lock()
				st.corrupt[m.Chunks[i].ID] = true
				st.mu.Unlock()
			}
		}},
		{name: "transport failure", damage: func(t *testing.T, m *core.ChunkMap, preferred replicaOf) {
			_, b := preferred(0)
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "close mid-read", readBytes: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mgr, err := manager.New(manager.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mgr.Close() })
			stores := make(map[core.NodeID]*faultStore)
			benefs := make(map[core.NodeID]*benefactor.Benefactor)
			for i := 0; i < 2; i++ {
				st := &faultStore{Store: store.NewMemory(0, nil), corrupt: make(map[core.ChunkID]bool)}
				b, err := benefactor.New(benefactor.Config{ManagerAddr: mgr.Addr(), Store: st})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { b.Close() })
				stores[b.ID()], benefs[b.ID()] = st, b
			}
			waitForBenefactors(t, mgr, 2)
			cl, err := New(Config{
				ManagerAddr:    mgr.Addr(),
				StripeWidth:    2,
				ChunkSize:      chunk,
				Replication:    2,
				Semantics:      core.WritePessimistic, // Wait returns once both replicas exist
				ReadAheadBytes: ahead,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			data := make([]byte, chunks*chunk)
			rand.New(rand.NewSource(int64(len(tc.name)))).Read(data)
			mustStore(t, cl, "body.n1.t0", data)

			tr := trackBatchBodies(cl)
			r, err := cl.Open("body.n1.t0")
			if err != nil {
				t.Fatal(err)
			}
			if tc.damage != nil {
				m := r.Map()
				tc.damage(t, m, func(i int) (*faultStore, *benefactor.Benefactor) {
					node := m.Locations[i][i%len(m.Locations[i])] // the reader's rotation
					return stores[node], benefs[node]
				})
			}
			if tc.readBytes > 0 {
				if _, err := io.ReadFull(r, make([]byte, tc.readBytes)); err != nil {
					t.Fatal(err)
				}
				r.Close()
			} else {
				got, err := r.ReadAll()
				r.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, data) {
					t.Fatal("restore is not byte-identical")
				}
				if r.BytesFetched() != int64(len(data)) {
					t.Fatalf("fetched %d bytes for a %d-byte image: a served slot was fetched again", r.BytesFetched(), len(data))
				}
				if b := r.BytesBatched(); (tc.damage == nil) != (b == int64(len(data))) || b == 0 {
					t.Fatalf("batches served %d of %d bytes: want all of them exactly when nothing is damaged", b, len(data))
				}
			}
			taken, peak := tr.settle(t)
			if taken == 0 {
				t.Fatal("no batch reply was taken: the restore never batched")
			}
			if bound := 2 * (ahead + chunk); peak > bound {
				t.Fatalf("batch bodies pinned %d bytes at once, over the bound of 2 × (ReadAheadBytes + a chunk) = %d", peak, bound)
			}
		})
	}
}
