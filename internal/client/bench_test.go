package client_test

import (
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/chunker"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/store"
)

// BenchmarkEmitChunkPipeline measures the full sliding-window write path —
// chunking, hashing, framing, upload, commit — against an unshaped in-process
// manager and a 4-wide stripe, 8 MB per op. Allocation count is the metric
// of interest: the steady-state path should recycle chunk buffers instead of
// allocating per chunk.
func BenchmarkEmitChunkPipeline(b *testing.B) {
	benchEmitChunkPipeline(b, client.Config{StripeWidth: 4})
}

// BenchmarkEmitChunkPipelineCbCH is the same write with the streaming
// content-defined boundary finder in the path: the delta against the
// fixed-size bench is the rolling-hash scan cost on the filling thread.
func BenchmarkEmitChunkPipelineCbCH(b *testing.B) {
	benchEmitChunkPipeline(b, client.Config{
		StripeWidth: 4,
		Chunking:    client.ChunkCbCH,
		CbCH:        chunker.StreamParams{Window: 48, Bits: 18, Min: 256 << 10, Max: 1 << 20},
	})
}

// BenchmarkOpenRead measures the restart fast path end to end: one op is
// Open (latest, or an explicit OpenOptions.Version) of a committed 8-chunk image plus a full read and
// Close, against an unshaped in-process manager and 4 benefactors. The
// cached variants re-open through the client chunk-map cache (explicit
// version: zero manager RPCs; latest: one MStatVersion probe); uncached
// is the historical full-getMap path. The bench-compare CI job gates
// allocs/op on this path.
func BenchmarkOpenRead(b *testing.B) {
	for _, variant := range []struct {
		name         string
		cacheEntries int
		version      bool // open by explicit version
	}{
		{"version-cached", 0, true},
		{"latest-cached", 0, false},
		{"latest-uncached", -1, false},
	} {
		b.Run(variant.name, func(b *testing.B) {
			benchOpenRead(b, variant.cacheEntries, variant.version)
		})
	}
}

// BenchmarkUploadPipeline contrasts two settings of the one upload loop
// over the same stripe: "serial" is its degenerate stop-and-wait setting
// (BufferBytes = ChunkSize: one chunk in the whole pipeline), "mux" the
// default writer (every chunk the 64 MB write window admits in flight,
// acks decoupled from sends). Both ride the client's shared multiplexed
// pool. Rides the bench-compare allocs gate: the window must not add
// per-chunk allocations over stop-and-wait.
func BenchmarkUploadPipeline(b *testing.B) {
	for _, variant := range []struct {
		name string
		cfg  client.Config
	}{
		{"serial", client.Config{StripeWidth: 4, BufferBytes: core.DefaultChunkSize}},
		{"mux", client.Config{StripeWidth: 4}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			benchEmitChunkPipeline(b, variant.cfg)
		})
	}
}

// BenchmarkReadPath contrasts two configurations of the one restore
// scheduler: "serial" is its degenerate stop-and-wait setting (a
// one-chunk ReadAheadBytes: one BGet outstanding), "mux" the default
// reader with no read-side switch set (4 MB window grouped by replica
// into BGetBatch requests). Both ride the client's shared multiplexed pool. One op is an
// explicit-version cached open plus a full read of an 8-chunk image, so
// the delta between the variants is pure scheduling. Rides the
// bench-compare allocs gate.
func BenchmarkReadPath(b *testing.B) {
	for _, variant := range []struct {
		name string
		cfg  client.Config
	}{
		{"serial", client.Config{ReadAheadBytes: 64 << 10}},
		{"mux", client.Config{}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			benchReadPath(b, variant.cfg)
		})
	}
}

// BenchmarkWriteOAB measures what a checkpoint costs the application: one
// op is Create, 8 MB of 1 MB Writes and Close — the OAB interval — against
// donors that acknowledge nothing until Close has returned, so nothing
// drains behind the application and the image (an eighth of the default
// buffer) must be taken in whole. The MB/s is memcpy speed plus one Alloc
// round trip; anything that makes Write wait for a pipeline stage shows
// here first. Rides the bench-compare allocs gate: the queues between the
// stages must not cost a checkpoint a window's worth of slots.
func BenchmarkWriteOAB(b *testing.B) {
	for _, variant := range []struct {
		name string
		cfg  client.Config
	}{
		{"fixed-64k", client.Config{ChunkSize: 64 << 10}},
		{"cbch", client.Config{Chunking: client.ChunkCbCH}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			benchWriteOAB(b, variant.cfg)
		})
	}
}

// heldStore is a chunk store whose Put waits while the store is held.
type heldStore struct {
	store.Store
	mu   sync.Mutex
	held chan struct{} // nil when puts pass
}

func (s *heldStore) hold() {
	s.mu.Lock()
	s.held = make(chan struct{})
	s.mu.Unlock()
}

func (s *heldStore) release() {
	s.mu.Lock()
	close(s.held)
	s.held = nil
	s.mu.Unlock()
}

func (s *heldStore) Put(id core.ChunkID, data []byte) (bool, error) {
	s.mu.Lock()
	held := s.held
	s.mu.Unlock()
	if held != nil {
		<-held
	}
	return s.Store.Put(id, data)
}

func benchWriteOAB(b *testing.B, cfg client.Config) {
	var stores []*heldStore
	mgr := benchCluster(b, func() store.Store {
		st := &heldStore{Store: store.NewMemory(0, nil)}
		stores = append(stores, st)
		return st
	})
	cfg.ManagerAddr, cfg.StripeWidth, cfg.Replication = mgr.Addr(), 4, 1
	cl, err := client.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	data := make([]byte, 1<<20)
	rand.New(rand.NewSource(7)).Read(data) // content for the boundary finder to cut
	const writes = 8
	b.SetBytes(writes << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, st := range stores {
			st.hold()
		}
		w, err := cl.Create("oab.n1.t0")
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < writes; j++ {
			if _, err := w.Write(data); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		for _, st := range stores {
			st.release()
		}
		if err := w.Wait(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// benchCluster starts an unshaped in-process manager and four benefactors
// — each over newStore's chunk store, when given — and returns once they
// have registered. Everything closes with the benchmark.
func benchCluster(b *testing.B, newStore func() store.Store) *manager.Manager {
	b.Helper()
	mgr, err := manager.New(manager.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { mgr.Close() })
	for i := 0; i < 4; i++ {
		cfg := benefactor.Config{ManagerAddr: mgr.Addr()}
		if newStore != nil {
			cfg.Store = newStore()
		}
		bf, err := benefactor.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { bf.Close() })
	}
	for deadline := time.Now().Add(5 * time.Second); mgr.Stats().OnlineBenefactors < 4; {
		if time.Now().After(deadline) {
			b.Fatalf("only %d benefactors registered", mgr.Stats().OnlineBenefactors)
		}
		time.Sleep(time.Millisecond)
	}
	return mgr
}

func benchReadPath(b *testing.B, cfg client.Config) {
	mgr := benchCluster(b, nil)
	cfg.ManagerAddr = mgr.Addr()
	cfg.StripeWidth = 4
	cfg.ChunkSize = 64 << 10
	cfg.Replication = 1
	cl, err := client.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	const name = "bench.n3.t0"
	w, err := cl.Create(name)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512<<10) // 8 chunks of 64 KB
	for i := range data {
		data[i] = byte(i * 29)
	}
	if _, err := w.Write(data); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		b.Fatal(err)
	}
	info, err := cl.Stat(name)
	if err != nil {
		b.Fatal(err)
	}
	ver := info.Versions[len(info.Versions)-1].Version

	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cl.Open(name, client.OpenOptions{Version: ver})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Read(buf); err != nil {
				if err == io.EOF {
					break
				}
				b.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchOpenRead(b *testing.B, cacheEntries int, byVersion bool) {
	mgr := benchCluster(b, nil)
	cl, err := client.New(client.Config{
		ManagerAddr:     mgr.Addr(),
		StripeWidth:     4,
		ChunkSize:       64 << 10,
		Replication:     1,
		MapCacheEntries: cacheEntries,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	const name = "bench.n2.t0"
	w, err := cl.Create(name)
	if err != nil {
		b.Fatal(err)
	}
	data := make([]byte, 512<<10) // 8 chunks of 64 KB
	for i := range data {
		data[i] = byte(i * 17)
	}
	if _, err := w.Write(data); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		b.Fatal(err)
	}
	ver := core.VersionID(0)
	if byVersion {
		info, err := cl.Stat(name)
		if err != nil {
			b.Fatal(err)
		}
		ver = info.Versions[len(info.Versions)-1].Version
	}

	buf := make([]byte, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := cl.Open(name, client.OpenOptions{Version: ver})
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := r.Read(buf); err != nil {
				if err == io.EOF {
					break
				}
				b.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEmitChunkPipeline(b *testing.B, cfg client.Config) {
	mgr := benchCluster(b, nil)
	cfg.ManagerAddr = mgr.Addr()
	cl, err := client.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	data := make([]byte, 1<<20)
	for i := range data {
		data[i] = byte(i * 13)
	}
	const chunks = 8
	b.SetBytes(chunks << 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := cl.Create("bench.n1.t0")
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < chunks; j++ {
			data[0] = byte(i + j) // distinct chunks per op
			if _, err := w.Write(data); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
		if err := w.Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
