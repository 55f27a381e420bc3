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
			cfg.endpoint, cfg.StripeWidth, cfg.Replication = tollEndpoint{router, probes}, 4, 1
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

// TestFullBufferBlocksAtOneChunk: with BufferBytes = ChunkSize one chunk
// fills the window, whichever stripe node it went to, so the second
// chunk's Write waits for the first put's ack. The stage may hold back
// ChunkSize − 1 bytes without making Write wait, never a whole chunk.
func TestFullBufferBlocksAtOneChunk(t *testing.T) {
	const chunk = 16 << 10
	puts := newToll()
	mgr, acked := tollCluster(t, 2, puts)
	cl, err := New(Config{ManagerAddr: mgr.Addr(), StripeWidth: 2, Replication: 1, ChunkSize: chunk, BufferBytes: chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w, err := cl.Create("saw.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(2*chunk, 26)
	within(t, 20*time.Second, "one chunk into a one-chunk buffer", func() {
		_, err = w.Write(data[:chunk])
	})
	if err != nil {
		t.Fatal(err)
	}

	second := make(chan error, 1)
	go func() {
		_, err := w.Write(data[chunk:])
		second <- err
	}()
	select {
	case err := <-second:
		t.Fatalf("the second chunk was admitted with the first unacknowledged (err %v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	puts.letOne()
	select {
	case err := <-second:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the first chunk's ack did not unblock the second chunk's Write")
	}
	if n := acked.Load(); n != 1 {
		t.Fatalf("%d puts were acknowledged before the second chunk was admitted, want 1", n)
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
// boundary of its own. Fixed chunks of the same image, under the same
// sliding window, end at exact ChunkSize offsets with a short last chunk:
// 64 KB divides a segment, 48 KB does not, and 1.5 MB is larger than one.
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
	type chunking struct {
		name  string
		cl    *Client
		spans []chunker.Span
	}
	client := func(cfg Config) *Client {
		cfg.ManagerAddr, cfg.StripeWidth = mgr.Addr(), 2
		cl, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	chunkings := []chunking{{"cbch", client(Config{Chunking: ChunkCbCH, CbCH: params}), spans}}
	for _, size := range []int64{64 << 10, 48 << 10, 3 << 19} {
		var fixed []chunker.Span
		for off := int64(0); off < int64(len(data)); off += size {
			fixed = append(fixed, chunker.Span{Off: off, Len: min(size, int64(len(data))-off)})
		}
		chunkings = append(chunkings, chunking{fmt.Sprintf("fixed %d B", size), client(Config{ChunkSize: size}), fixed})
	}
	for _, block := range []int{1, 4093, 64 << 10, segmentSize - 1, segmentSize, segmentSize + 1, segmentSize + 777, len(data)} {
		t.Run(fmt.Sprintf("%d B writes", block), func(t *testing.T) {
			for _, ck := range chunkings {
				t.Run(ck.name, func(t *testing.T) {
					w, err := ck.cl.Create("cuts.n1.t0")
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
					if len(w.commitChunks) != len(ck.spans) {
						t.Fatalf("the writer cut %d chunks, want %d", len(w.commitChunks), len(ck.spans))
					}
					for i, sp := range ck.spans {
						want := core.HashChunk(data[sp.Off : sp.Off+sp.Len])
						if got := w.commitChunks[i]; got.ID != want || got.Size != sp.Len {
							t.Fatalf("chunk %d: %d bytes named %v, want %d bytes at offset %d named %v",
								i, got.Size, got.ID, sp.Len, sp.Off, want)
						}
					}
				})
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

// TestBufferBytesBoundsPinnedMemoryFixedChunks is the fixed-size case of
// TestBufferBytesBoundsPinnedMemory: fixed chunks are staged too, a
// segment holds whole chunks and none is ever carried, so with no put
// acknowledged the pooled capacity out is at most BufferBytes plus the
// segment being filled.
func TestBufferBytesBoundsPinnedMemoryFixedChunks(t *testing.T) {
	const buffer = 8 << 20
	puts := newToll()
	mgr, acked := tollCluster(t, 4, puts)
	cl, err := New(Config{ManagerAddr: mgr.Addr(), StripeWidth: 4, Replication: 1, ChunkSize: 64 << 10, BufferBytes: buffer})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	tr := trackChunkBufs(t, cl)

	data := randBytes(2*buffer, 30)
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
	select {
	case err := <-wrote:
		t.Fatalf("an image of twice the buffer was taken in whole with no put acknowledged (err %v)", err)
	default:
	}
	tr.mu.Lock()
	peak, carries := tr.peak, tr.bufs
	tr.mu.Unlock()
	if bound := int64(buffer + segmentSize); peak > bound || carries != 0 || acked.Load() != 0 {
		t.Fatalf("with a %d-byte window full and %d puts acknowledged, %d bytes of pooled buffers and %d carries were out; want at most %d and none",
			buffer, acked.Load(), peak, carries, bound)
	}

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
	tr.check()
}

// TestTwoChunkWindowStaysPipelined: a window of two chunks is a pipeline,
// not stop-and-wait over the whole window. With puts held, an image
// written in one Write fills the window with two chunks; one
// acknowledgement lets the third chunk in while the second is still in
// flight.
func TestTwoChunkWindowStaysPipelined(t *testing.T) {
	const chunk = 16 << 10
	puts := newToll()
	mgr, acked := tollCluster(t, 1, puts)
	cl, err := New(Config{ManagerAddr: mgr.Addr(), StripeWidth: 1, Replication: 1, ChunkSize: chunk, BufferBytes: 2 * chunk})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w, err := cl.Create("pipe.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	data := randBytes(5*chunk, 31)
	wrote := make(chan error, 1)
	go func() {
		_, err := w.Write(data)
		wrote <- err
	}()
	cut := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.chunkIdx
	}
	waitFor(t, "two chunks to fill the window", func() bool { return cut() == 2 })
	time.Sleep(100 * time.Millisecond)
	if n := cut(); n != 2 {
		t.Fatalf("%d chunks were admitted to a two-chunk window with no put acknowledged", n)
	}
	puts.letOne()
	deadline := time.Now().Add(5 * time.Second)
	for cut() < 3 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n, a := cut(), acked.Load(); n != 3 || a != 1 {
		t.Fatalf("after one acknowledged put, %d chunks were admitted and %d puts acknowledged; want the third chunk in with one ack", n, a)
	}

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
	if n := len(w.commitChunks); n != 5 {
		t.Fatalf("committed %d chunks, want 5", n)
	}
}

// TestWindowProperties holds the write window to three properties over
// randomized chunking, chunk size, window, write sizes, stripe width and
// protocol, with puts held and then acknowledged one at a time:
//   - pinned: with nothing acknowledged, the pooled capacity out is at
//     most BufferBytes plus the segment being filled, plus a max span
//     under CbCH (the bound Config.BufferBytes documents for the sliding
//     window);
//   - liveness: whenever the writer waits in admit, the window lacks room
//     for a whole chunk's cost — its length, plus a carry's reservation
//     of a max span under CbCH;
//   - the cuts equal StreamParams.Split's, or exact ChunkSize offsets.
func TestWindowProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	stacks := make([]byte, 1<<20)
	inAdmit := func() bool {
		return strings.Contains(string(stacks[:runtime.Stack(stacks, true)]), "client.(*Writer).admit")
	}
	for trial := 0; trial < 12; trial++ {
		cfg := Config{Replication: 1, StripeWidth: 1 + rng.Intn(3)}
		var unit int64 // one chunk's largest cost in the window
		if rng.Intn(2) == 0 {
			cfg.ChunkSize = []int64{4 << 10, 12 << 10, 16 << 10}[rng.Intn(3)]
			unit = cfg.ChunkSize
		} else {
			cfg.Chunking = ChunkCbCH
			cfg.CbCH = chunker.StreamParams{Window: 48, Bits: 10, Min: 512, Max: []int64{4 << 10, 8 << 10}[rng.Intn(2)]}
			unit = 2 * cfg.CbCH.Max
		}
		cfg.BufferBytes = unit * []int64{1, 2, 3, 5, 8}[rng.Intn(5)]
		cfg.BufferBytes += rng.Int63n(unit / 2)
		if rng.Intn(3) == 0 {
			cfg.Protocol = IncrementalWrite
			cfg.TempFileBytes = cfg.BufferBytes/2 + rng.Int63n(cfg.BufferBytes)
		}
		maxWrite := 1 + rng.Intn(int(3*cfg.BufferBytes))
		data := randBytes(int(3*cfg.BufferBytes)+rng.Intn(int(unit)), int64(trial))
		name := fmt.Sprintf("trial %d: %d-wide, window %d, chunk %d, cbch max %d, writes ≤ %d, incremental %v",
			trial, cfg.StripeWidth, cfg.BufferBytes, cfg.ChunkSize, cfg.CbCH.Max, maxWrite, cfg.Protocol == IncrementalWrite)
		t.Run(fmt.Sprint(trial), func(t *testing.T) {
			puts := newToll()
			mgr, acked := tollCluster(t, cfg.StripeWidth, puts)
			cfg.ManagerAddr = mgr.Addr()
			cl, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			tr := trackChunkBufs(t, cl)
			w, err := cl.Create("window.n1.t0")
			if err != nil {
				t.Fatal(err)
			}
			wrote := make(chan error, 1)
			go func() {
				for off := 0; off < len(data); {
					n := min(1+rng.Intn(maxWrite), len(data)-off)
					if _, err := w.Write(data[off : off+n]); err != nil {
						wrote <- err
						return
					}
					off += n
				}
				wrote <- w.Close()
			}()
			// settle waits until the pipeline stops moving and reports
			// whether the writer is waiting in admit, with its window.
			type state struct {
				inflight, acked int64
				chunks          int
				waiting         bool
			}
			settle := func() state {
				var last state
				for still := 0; still < 25; time.Sleep(2 * time.Millisecond) {
					w.mu.Lock()
					now := state{inflight: w.inflight, chunks: w.chunkIdx}
					w.mu.Unlock()
					now.acked, now.waiting = acked.Load(), inAdmit()
					if now == last {
						still++
					} else {
						last, still = now, 0
					}
				}
				return last
			}
			live := func(s state) {
				t.Helper()
				if s.waiting && cfg.BufferBytes-s.inflight >= unit {
					t.Fatalf("%s: the writer waits in admit with %d of %d window bytes in flight — room for a whole chunk (%d)",
						name, s.inflight, cfg.BufferBytes, unit)
				}
			}

			s := settle()
			if !s.waiting {
				t.Fatalf("%s: an image of three windows did not fill the window with no put acknowledged", name)
			}
			live(s)
			if cfg.Protocol == SlidingWindow {
				bound := cfg.BufferBytes + int64(w.segLen)
				if cfg.Chunking == ChunkCbCH {
					bound += cfg.CbCH.Max
				}
				tr.mu.Lock()
				peak := tr.peak
				tr.mu.Unlock()
				if peak > bound {
					t.Fatalf("%s: %d bytes of pooled buffers out with nothing acknowledged, want at most %d", name, peak, bound)
				}
			}
			for step := 0; step < 4; step++ {
				puts.letOne()
				live(settle())
			}

			puts.open()
			if err := <-wrote; err != nil {
				t.Fatal(err)
			}
			if err := w.Wait(); err != nil {
				t.Fatal(err)
			}
			var spans []chunker.Span
			if cfg.Chunking == ChunkCbCH {
				spans = cfg.CbCH.Split(data)
			} else {
				for off := int64(0); off < int64(len(data)); off += cfg.ChunkSize {
					spans = append(spans, chunker.Span{Off: off, Len: min(cfg.ChunkSize, int64(len(data))-off)})
				}
			}
			if len(w.commitChunks) != len(spans) {
				t.Fatalf("%s: the writer cut %d chunks, want %d", name, len(w.commitChunks), len(spans))
			}
			for i, sp := range spans {
				if got, want := w.commitChunks[i], core.HashChunk(data[sp.Off:sp.Off+sp.Len]); got.ID != want || got.Size != sp.Len {
					t.Fatalf("%s: chunk %d is %d bytes named %v, want %d bytes at offset %d", name, i, got.Size, got.ID, sp.Len, sp.Off)
				}
			}
			tr.check()
		})
	}
}
