package client_test

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/chunker"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/workload"
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
// fixed-size bench is the staging and the rolling-hash scan, which run on
// the stage goroutine between Write and the hasher.
func BenchmarkEmitChunkPipelineCbCH(b *testing.B) {
	benchEmitChunkPipeline(b, client.Config{
		StripeWidth: 4,
		Chunking:    client.ChunkCbCH,
		CbCH:        chunker.StreamParams{Window: 48, Bits: 18, Min: 256 << 10, Max: 1 << 20},
	})
}

// BenchmarkEmitChunkPipelineIncremental is the incr_blcr shape: default
// CbCH parameters, Incremental on, and each op writes the second version
// of an 8 MB BLCR-like image over a stored first version, with a marker
// stamped into each of its megabytes so a few spans are new every op. So
// the dedup probes fire and mostly hit, and the serial stages are the
// scan, SHA-1 — on the batcher and the namers it starts — and the probes.
func BenchmarkEmitChunkPipelineIncremental(b *testing.B) {
	mgr := benchCluster(b, nil)
	cl, err := client.New(client.Config{
		ManagerAddr: mgr.Addr(), StripeWidth: 4, Replication: 1,
		Chunking: client.ChunkCbCH, Incremental: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	trace := workload.BLCR5Min(1, 2, 8<<20)
	write := func(name string, img []byte) {
		w, err := cl.Create(name)
		if err != nil {
			b.Fatal(err)
		}
		for off := 0; off < len(img); off += 1 << 20 {
			if _, err := w.Write(img[off:min(off+1<<20, len(img))]); err != nil {
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
	write("incr.n1.t0", trace.Images[0])
	img := trace.Images[1]
	b.SetBytes(int64(len(img)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < len(img); off += 1 << 20 {
			binary.LittleEndian.PutUint64(img[off:], uint64(i))
		}
		write(fmt.Sprintf("incr.n1.t%d", i+1), img)
	}
}

// BenchmarkOpenRead measures the restart fast path end to end: one op is
// Open (latest, or an explicit OpenOptions.Version) of a committed 8-chunk image plus a full read and
// Close, against an unshaped in-process manager and 4 benefactors. The
// cached variants re-open through the client chunk-map cache (explicit
// version: zero manager RPCs; latest: one MGetMap answered without a
// map); uncached fetches the full map every time. The bench-compare CI
// job gates allocs/op on this path.
func BenchmarkOpenRead(b *testing.B) {
	for _, variant := range []struct {
		name    string
		cached  bool
		version bool // open by explicit version
	}{
		{"version-cached", true, true},
		{"latest-cached", true, false},
		{"latest-uncached", false, false},
	} {
		b.Run(variant.name, func(b *testing.B) {
			benchOpenRead(b, variant.cached, variant.version)
		})
	}
}

// BenchmarkRoutedCall measures one routed metadata round trip through the
// client's Router against a one-manager in-process cluster over sockets:
// "stat" is Client.Stat, "open-latest" a warm latest Open (one MGetMap
// the manager answers "unchanged") closed unread. Allocation count is the
// metric of interest: looking up an op's route and stamping its epoch
// must add none. Rides the bench-compare allocs gate.
func BenchmarkRoutedCall(b *testing.B) {
	mgr := benchCluster(b, nil)
	cl, err := client.New(client.Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 1,
		ChunkSize:   64 << 10,
		Replication: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()

	const name = "bench.n4.t0"
	w, err := cl.Create(name)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := w.Write(make([]byte, 4<<10)); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		b.Fatal(err)
	}
	open := func() error {
		r, err := cl.Open(name)
		if err != nil {
			return err
		}
		return r.Close()
	}
	if err := open(); err != nil { // warm the chunk-map cache
		b.Fatal(err)
	}
	for _, variant := range []struct {
		name string
		op   func() error
	}{
		{"stat", func() error { _, err := cl.Stat(name); return err }},
		{"open-latest", open},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := variant.op(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkUploadPipeline contrasts two settings of the one upload loop
// over the same stripe: "serial" is its degenerate stop-and-wait setting
// (BufferBytes = ChunkSize: one chunk in the whole pipeline), "mux" the
// default writer (every chunk the 64 MB write window admits in flight,
// acks decoupled from sends). Both ride the client's shared multiplexed
// pool. "small" is the meta_small shape: a 64 KB image in 8 KB chunks over
// 4 donors, whose chunks an uploader finds queued behind the one it woke
// for go out as one BPutBatch. Rides the bench-compare allocs gate: the
// window must not add per-chunk allocations over stop-and-wait, nor
// batching per-checkpoint ones.
func BenchmarkUploadPipeline(b *testing.B) {
	for _, variant := range []struct {
		name string
		cfg  client.Config
	}{
		{"serial", client.Config{StripeWidth: 4, BufferBytes: core.DefaultChunkSize}},
		{"mux", client.Config{StripeWidth: 4}},
		{"small", client.Config{StripeWidth: 4, ChunkSize: 8 << 10}},
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
// round trip, for content-defined chunks too (their boundaries are found
// behind Write, on the stage goroutine); anything that makes Write wait
// for a pipeline stage shows here first. Rides the bench-compare allocs gate: the queues between the
// stages must not cost a checkpoint a window's worth of slots. allocs/op
// counts only what lands before Close returns, so it moves with how far
// the background stages got by then; ckpt-allocs/op counts the whole
// checkpoint, Create through Wait, in every process of the in-process
// cluster, and gates the same way.
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
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	mallocs := mem.Mallocs
	b.ResetTimer()
	defer func() {
		runtime.ReadMemStats(&mem)
		b.ReportMetric(float64(mem.Mallocs-mallocs)/float64(b.N), "ckpt-allocs/op")
	}()
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
	online := func() int64 { return mgr.Stats().Counters[proto.CtrBenefactorsOnline].Value }
	for deadline := time.Now().Add(5 * time.Second); online() < 4; {
		if time.Now().After(deadline) {
			b.Fatalf("only %d benefactors registered", online())
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

func benchOpenRead(b *testing.B, cached, byVersion bool) {
	mgr := benchCluster(b, nil)
	cl, err := client.New(client.Config{
		ManagerAddr: mgr.Addr(),
		StripeWidth: 4,
		ChunkSize:   64 << 10,
		Replication: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	if !cached {
		client.DisableMapCache(cl)
	}

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

	chunk := cfg.ChunkSize
	if chunk == 0 {
		chunk = core.DefaultChunkSize
	}
	data := make([]byte, chunk)
	for i := range data {
		data[i] = byte(i * 13)
	}
	const chunks = 8
	b.SetBytes(chunks * chunk)
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
