package client

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/chunker"
	"stdchk/internal/core"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/store"
)

// The tests below pin what the application thread can wait for: room in
// Config.BufferBytes and nothing else. Whatever stalls downstream of the
// buffer — donors that never acknowledge, a dedup probe that never answers
// — an image that fits the buffer is written and closed at memory speed.

// toll lets one caller through per token; open lets everyone through for
// good. Shut (no tokens) is how a test freezes a pipeline stage.
type toll struct {
	tokens chan struct{}
	once   sync.Once
}

func newToll() *toll    { return &toll{tokens: make(chan struct{})} }
func (g *toll) pass()   { <-g.tokens }
func (g *toll) letOne() { g.tokens <- struct{}{} }
func (g *toll) open()   { g.once.Do(func() { close(g.tokens) }) }

// tollStore is a donor whose put handler waits at the toll; acked counts
// the puts it let through and stored.
type tollStore struct {
	store.Store
	toll  *toll
	acked *atomic.Int64
}

func (s tollStore) Put(id core.ChunkID, data []byte) (bool, error) {
	s.toll.pass()
	defer s.acked.Add(1)
	return s.Store.Put(id, data)
}

// tollEndpoint is the metadata plane with the dedup probe behind the toll.
type tollEndpoint struct {
	ManagerEndpoint
	toll *toll
}

func (e tollEndpoint) Call(op, name string, req, resp interface{}) error {
	if op == proto.MHasChunks {
		e.toll.pass()
	}
	return e.ManagerEndpoint.Call(op, name, req, resp)
}

// tollCluster starts a manager and width donors whose puts wait at puts.
func tollCluster(t *testing.T, width int, puts *toll) (*manager.Manager, *atomic.Int64) {
	t.Helper()
	mgr, err := manager.New(manager.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	acked := new(atomic.Int64)
	for i := 0; i < width; i++ {
		bf, err := benefactor.New(benefactor.Config{
			ManagerAddr: mgr.Addr(),
			Store:       tollStore{Store: store.NewMemory(0, nil), toll: puts, acked: acked},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { bf.Close() })
	}
	// Registered last, so it runs first: handlers held at the toll must be
	// let go before the donors close.
	t.Cleanup(puts.open)
	waitForBenefactors(t, mgr, width)
	return mgr, acked
}

// within fails the test when f is still running after d — what a Write
// held up by something other than its buffer looks like from outside.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

func randBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// queued is the number of items waiting in q.
func queued[T any](q *fifo[T]) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items) - q.head
}

func TestWriteBlocksOnlyOnBuffer(t *testing.T) {
	const minChunks = 2048
	small := chunker.StreamParams{Window: 48, Bits: 10, Min: 1 << 10, Max: 8 << 10}
	for _, tc := range []struct {
		name   string
		cfg    Config
		probes bool // freeze the dedup probe instead of the donors
	}{
		{"fixed chunks, no put acknowledged", Config{ChunkSize: 4 << 10}, false},
		{"cbch, no put acknowledged", Config{Chunking: ChunkCbCH, CbCH: small}, false},
		{"fixed chunks, no probe answered", Config{ChunkSize: 4 << 10, Incremental: true}, true},
		{"cbch, no probe answered", Config{Chunking: ChunkCbCH, CbCH: small, Incremental: true}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			puts, probes := newToll(), newToll()
			if tc.probes {
				puts.open()
			} else {
				probes.open()
			}
			mgr, acked := tollCluster(t, 4, puts)
			router, err := federation.NewRouter(federation.RouterConfig{Members: []string{mgr.Addr()}})
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Endpoint, cfg.StripeWidth, cfg.Replication = tollEndpoint{router, probes}, 4, 1
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			defer probes.open() // before cl.Close: a held probe holds the hasher

			// 8 MB under the default 64 MB buffer, in 64 KB application writes.
			data := randBytes(minChunks*4<<10, 24)
			var w *Writer
			within(t, 20*time.Second, "Create, Write and Close of an image that fits the buffer", func() {
				if w, err = cl.Create("frozen.n1.t0"); err != nil {
					return
				}
				for off := 0; off < len(data) && err == nil; off += 64 << 10 {
					_, err = w.Write(data[off : off+64<<10])
				}
				if err == nil {
					err = w.Close()
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			if m := w.Metrics(); m.BufferWait != 0 || m.Uploaded != 0 || m.Deduped != 0 || acked.Load() != 0 {
				t.Fatalf("closed with the pipeline frozen: waited %v on the buffer, %d bytes uploaded, %d deduped, %d puts acknowledged; want all zero",
					m.BufferWait, m.Uploaded, m.Deduped, acked.Load())
			}

			puts.open()
			probes.open()
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			if n := len(w.commitChunks); n < minChunks {
				t.Fatalf("the image made %d chunks; the test needs at least %d to outrun every queue", n, minChunks)
			}
			r, err := cl.Open("frozen.n1.t0")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if got, err := r.ReadAll(); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("restore differs from the written image (err %v)", err)
			}
		})
	}
}

// TestFullBufferBlocksUntilOneAck is the other half: the buffer does push
// back. With room for eight chunks and no put acknowledged, the ninth
// chunk's Write waits, and one acknowledgement is what lets it go.
func TestFullBufferBlocksUntilOneAck(t *testing.T) {
	const chunk = 16 << 10
	puts := newToll()
	mgr, acked := tollCluster(t, 1, puts)
	cl, err := New(Config{ManagerAddr: mgr.Addr(), StripeWidth: 1, Replication: 1, ChunkSize: chunk, BufferBytes: 8 * chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w, err := cl.Create("full.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(9*chunk, 25)
	within(t, 20*time.Second, "eight chunks into an eight-chunk buffer", func() {
		for i := 0; i < 8 && err == nil; i++ {
			_, err = w.Write(data[i*chunk : (i+1)*chunk])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := w.Metrics(); m.BufferWait != 0 {
		t.Fatalf("waited %v on a buffer that was never full", m.BufferWait)
	}

	ninth := make(chan error, 1)
	go func() {
		_, err := w.Write(data[8*chunk:])
		ninth <- err
	}()
	select {
	case err := <-ninth:
		t.Fatalf("the ninth chunk was admitted to a full buffer (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	puts.letOne()
	select {
	case err := <-ninth:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("one acknowledged put did not unblock the ninth chunk's Write")
	}
	if n := acked.Load(); n != 1 {
		t.Fatalf("%d puts were acknowledged before the ninth chunk was admitted, want 1", n)
	}
	if m := w.Metrics(); m.BufferWait <= 0 {
		t.Fatal("Write waited for the buffer and BufferWait is zero")
	}

	puts.open()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
}

// TestCbCHCutsMatchSplit: the writer cuts an image where one scan over
// the whole of it would, whatever sizes the application writes in and
// however they fall on the staging segments — including a Max cut that
// runs across a segment boundary, through a zero run that offers no
// boundary of its own.
func TestCbCHCutsMatchSplit(t *testing.T) {
	mgr, _ := startCluster(t, 2, 0)
	params := chunker.StreamParams{Window: 48, Bits: 11, Min: 2 << 10, Max: 16 << 10}
	data := randBytes(3*segmentSize+777, 26)
	clear(data[segmentSize-40<<10 : segmentSize+40<<10])
	spans := params.Split(data)
	if !slices.ContainsFunc(spans, func(sp chunker.Span) bool {
		return sp.Len == params.Max && sp.Off < segmentSize && sp.Off+sp.Len > segmentSize
	}) {
		t.Fatal("no Max cut crosses the first segment boundary; the zero run no longer forces one")
	}
	cl, err := New(Config{ManagerAddr: mgr.Addr(), StripeWidth: 2, Chunking: ChunkCbCH, CbCH: params})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for _, block := range []int{1, 4093, 64 << 10, segmentSize - 1, segmentSize, segmentSize + 1, segmentSize + 777, len(data)} {
		t.Run(fmt.Sprintf("%d B writes", block), func(t *testing.T) {
			w, err := cl.Create("cuts.n1.t0")
			if err != nil {
				t.Fatal(err)
			}
			for off := 0; off < len(data); off += block {
				if _, err := w.Write(data[off:min(off+block, len(data))]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			if len(w.commitChunks) != len(spans) {
				t.Fatalf("the writer cut %d chunks, Split cuts %d", len(w.commitChunks), len(spans))
			}
			for i, sp := range spans {
				want := core.HashChunk(data[sp.Off : sp.Off+sp.Len])
				if got := w.commitChunks[i]; got.ID != want || got.Size != sp.Len {
					t.Fatalf("chunk %d: %d bytes named %v, want Split's %d bytes at offset %d named %v",
						i, got.Size, got.ID, sp.Len, sp.Off, want)
				}
			}
		})
	}
}

// TestBufferBytesBoundsPinnedMemory: under CbCH, BufferBytes bounds the
// memory a writer pins, not only the bytes it counts. No put is ever
// acknowledged, so nothing drains: the writer takes in what the window
// admits and then Write waits for good. By then the pooled capacity handed
// out — staging segments and carries — is at most BufferBytes, plus the
// segment being filled and one max span. A writer that kept each ≈ 60 KB
// span in a buffer a max span long (256 KB) would pin about 4 × as much.
func TestBufferBytesBoundsPinnedMemory(t *testing.T) {
	const buffer = 8 << 20
	puts := newToll()
	mgr, acked := tollCluster(t, 4, puts)
	cl, err := New(Config{ManagerAddr: mgr.Addr(), StripeWidth: 4, Replication: 1, Chunking: ChunkCbCH, BufferBytes: buffer})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)
	bound := int64(buffer + segmentSize + cl.cfg.CbCH.Max)

	data := randBytes(2*buffer, 29)
	w, err := cl.Create("pinned.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() {
		var err error
		for off := 0; off < len(data) && err == nil; off += 1 << 20 {
			_, err = w.Write(data[off : off+1<<20])
		}
		wrote <- err
	}()
	stacks := make([]byte, 1<<20)
	waitFor(t, "Write to wait for room in the window", func() bool {
		return strings.Contains(string(stacks[:runtime.Stack(stacks, true)]), "client.(*Writer).admit")
	})
	// Whatever the stage still cuts from what was admitted is pinned by
	// now; wait until that settles too.
	var last int64
	for still := 0; still < 10; time.Sleep(20 * time.Millisecond) {
		tr.mu.Lock()
		now := tr.pinned
		tr.mu.Unlock()
		if now == last {
			still++
		} else {
			last, still = now, 0
		}
	}
	select {
	case err := <-wrote:
		t.Fatalf("an image of twice the buffer was taken in whole with no put acknowledged (err %v)", err)
	default:
	}
	tr.mu.Lock()
	peak := tr.peak
	tr.mu.Unlock()
	if peak > bound || acked.Load() != 0 {
		t.Fatalf("with a %d-byte window full and %d puts acknowledged, %d bytes of pooled buffers were out at once; want at most %d",
			buffer, acked.Load(), peak, bound)
	}
	t.Logf("peak pinned %d bytes under a %d-byte window (bound %d)", peak, buffer, bound)

	puts.open()
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := w.Metrics(); m.BufferWait <= 0 {
		t.Fatal("Write waited for the buffer and BufferWait is zero")
	}
	tr.check()
}
