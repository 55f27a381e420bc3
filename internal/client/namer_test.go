package client

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/chunker"
	"stdchk/internal/core"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
	"stdchk/internal/store"
)

// The batcher names a chunk itself unless a namer got to it first; namers
// start once a segment's worth of bytes waits to be named, up to
// GOMAXPROCS − 1 of them. The tests below pin that they change nothing but
// who runs SHA-1: the same probe batches, the same names, each chunk named
// once, and the same clean teardown on a failed session.

// setProcs sets GOMAXPROCS for the rest of the test.
func setProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// countNames makes hashChunk count its calls per chunk, by the address of
// the chunk's first byte, until the test ends, and returns a snapshot
// function for the counts.
func countNames(t *testing.T) func() map[*byte]int {
	var mu sync.Mutex
	counts := make(map[*byte]int)
	hashChunk = func(data []byte) core.ChunkID {
		mu.Lock()
		counts[&data[0]]++
		mu.Unlock()
		return core.HashChunk(data)
	}
	t.Cleanup(func() { hashChunk = core.HashChunk })
	return func() map[*byte]int {
		mu.Lock()
		defer mu.Unlock()
		return maps.Clone(counts)
	}
}

// TestNamersKeepProbeBatches queues the shapes TestHasherBatchesQueuedChunks
// and TestFixedChunkProbeBatches pin, in chunks big enough that a segment's
// worth waits before the batcher starts, so namers start and name chunks
// ahead of it. The queue is whole and closed when the batcher starts, so
// it never runs dry and batches close only at maxProbeBatch, at a flush
// marker and at the end — exactly as without namers. The queue closes
// either at once, with namers still naming and the batcher naming beside
// them, or once the namers have named every chunk and wait, idle, for
// the close to wake them all.
func TestNamersKeepProbeBatches(t *testing.T) {
	for _, run := range []struct {
		procs int
		idle  bool
	}{{1, false}, {2, false}, {2, true}, {4, false}, {4, true}} {
		procs := run.procs
		for _, c := range []struct {
			name    string
			size    int
			chunks  int
			flushAt int // index of the chunk carrying a flush marker, -1 for none
			want    []int
		}{
			{"two full batches", 64 << 10, 2 * maxProbeBatch, -1, []int{maxProbeBatch, maxProbeBatch}},
			{"full batches and a remainder", 64 << 10, 2*maxProbeBatch + 1, -1, []int{maxProbeBatch, maxProbeBatch, 1}},
			{"flush marker splits a batch", 64 << 10, 2 * maxProbeBatch, 9, []int{10, maxProbeBatch, maxProbeBatch - 10}},
			{"flush marker on the last chunk", 64 << 10, maxProbeBatch, maxProbeBatch - 1, []int{maxProbeBatch}},
			{"64 KB chunks, 16 per segment", 64 << 10, 48, 47, []int{maxProbeBatch, 16}},
			{"1 MB chunks, one per segment", 1 << 20, 4, 3, []int{4}},
		} {
			t.Run(fmt.Sprintf("GOMAXPROCS=%d/idle=%v/%s", procs, run.idle, c.name), func(t *testing.T) {
				setProcs(t, procs)
				names := countNames(t)
				rec := &probeRecorder{fakeMetadata: newFakeMetadata()}
				cl, err := New(Config{endpoint: rec, Incremental: true})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				w := &Writer{c: cl, name: "named.n1.t0", copyAdmits: true, failed: make(chan struct{})}
				w.cond.L = &w.mu
				w.hashQ.init(0)
				w.hashWg.Add(1) // the batcher's, held while the chunks queue
				var data [][]byte
				for i := 0; i < c.chunks; i++ {
					buf := cl.getChunkBuf(int64(c.size))
					buf.b = append(buf.b, randBytes(c.size, int64(i))...)
					data = append(data, buf.b)
					w.inflight += int64(c.size)
					if err := w.emitChunk(chunk{data: buf.b, buf: buf, cost: int64(c.size)}, i == c.flushAt); err != nil {
						t.Fatal(err)
					}
				}
				if w.namers != procs-1 {
					t.Fatalf("%d namers started at GOMAXPROCS %d, want %d", w.namers, procs, procs-1)
				}
				if run.idle {
					waitFor(t, "the namers to name every chunk", func() bool {
						w.hashQ.mu.Lock()
						defer w.hashQ.mu.Unlock()
						return !slices.ContainsFunc(w.hashQ.items, func(it chunkItem) bool { return !it.named })
					})
				}
				w.hashQ.close()
				go w.runHasher()
				within(t, 20*time.Second, "the batcher and its namers to drain the closed queue", w.hashWg.Wait)

				if !slices.Equal(rec.batches, c.want) {
					t.Fatalf("%d queued chunks were probed in batches of %v, want %v", c.chunks, rec.batches, c.want)
				}
				counts := names()
				for i, d := range data {
					if n := counts[&d[0]]; n != 1 {
						t.Fatalf("chunk %d was named %d times, want once", i, n)
					}
					if w.commitChunks[i].ID != core.HashChunk(d) {
						t.Fatalf("chunk %d committed as %x, want its SHA-1", i, w.commitChunks[i].ID)
					}
				}
				if len(counts) != c.chunks {
					t.Fatalf("%d distinct buffers named for %d chunks", len(counts), c.chunks)
				}
				if want := int64(c.chunks * c.size); w.deduped != want || w.inflight != 0 {
					t.Fatalf("deduped %d bytes with %d still in flight, want %d and 0", w.deduped, w.inflight, want)
				}
			})
		}
	}
}

// TestNamersReleaseOnFailure pins the failed session with namers running:
// a put failure, or a session failure while a namer is naming, still hands
// every segment and carry back exactly once and leaves no goroutine of the
// writer behind. The dedup probe waits at a toll until the image is
// queued, so the batcher falls a segment behind and namers start. It also
// pins where none starts: a 64 KB checkpoint, and GOMAXPROCS 1.
func TestNamersReleaseOnFailure(t *testing.T) {
	cbch := chunker.StreamParams{Window: 48, Bits: 12, Min: 4 << 10, Max: 64 << 10}
	for _, tc := range []struct {
		name       string
		procs      int
		size       int
		reject     bool // donors refuse every put
		failNaming bool // fail the session while a namer holds a chunk
		namers     bool // whether namers must start
	}{
		{"put failure", 4, 4 << 20, true, false, true},
		{"session failure while naming", 4, 4 << 20, false, true, true},
		{"64 KB checkpoint", 4, 64 << 10, false, false, false},
		{"GOMAXPROCS 1", 1, 4 << 20, false, false, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setProcs(t, tc.procs)
			mgr, err := manager.New(manager.Config{})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { mgr.Close() })
			for i := 0; i < 2; i++ {
				var st store.Store = store.NewMemory(0, nil)
				if tc.reject {
					st = rejectingStore{st}
				}
				bf, err := benefactor.New(benefactor.Config{ManagerAddr: mgr.Addr(), Store: st})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { bf.Close() })
			}
			waitForBenefactors(t, mgr, 2)
			baseline := settledGoroutines()

			// A namer entering hashChunk waits at naming once, when armed.
			naming, inNamer := newToll(), make(chan struct{})
			var once sync.Once
			if tc.failNaming {
				hashChunk = func(data []byte) core.ChunkID {
					stack := make([]byte, 4<<10)
					if strings.Contains(string(stack[:runtime.Stack(stack, false)]), "(*Writer).runNamer") {
						once.Do(func() {
							close(inNamer)
							naming.pass()
						})
					}
					return core.HashChunk(data)
				}
				t.Cleanup(func() { hashChunk = core.HashChunk })
			}
			defer naming.open()

			probes := newToll()
			router, err := federation.NewRouter(federation.RouterConfig{Members: []string{mgr.Addr()}})
			if err != nil {
				t.Fatal(err)
			}
			cl, err := New(Config{
				endpoint: tollEndpoint{router, probes}, StripeWidth: 2, Replication: 1,
				Chunking: ChunkCbCH, CbCH: cbch, Incremental: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer probes.open() // before cl.Close: a held probe holds the batcher
			tr := trackChunkBufs(t, cl)

			data := randBytes(tc.size, 41)
			w, err := cl.Create("namers.n1.t0")
			if err != nil {
				t.Fatal(err)
			}
			var writeErr error
			for off := 0; off < len(data) && writeErr == nil; off += 512 << 10 {
				_, writeErr = w.Write(data[off:min(off+512<<10, len(data))])
			}
			injected := errors.New("injected failure while naming")
			if tc.failNaming {
				select {
				case <-inNamer:
				case <-time.After(20 * time.Second):
					t.Fatal("no namer started naming")
				}
				w.fail(injected)
				naming.open()
			}
			if tc.namers {
				waitFor(t, "a namer to start", func() bool {
					w.mu.Lock()
					defer w.mu.Unlock()
					return w.namers > 0
				})
			}
			closeErr := w.Close()
			probes.open()
			waitErr := w.Wait()

			w.mu.Lock()
			namers := w.namers
			w.mu.Unlock()
			if started := namers > 0; started != tc.namers || namers > tc.procs-1 {
				t.Fatalf("%d namers started at GOMAXPROCS %d for a %d-byte image; want some: %v, at most %d",
					namers, tc.procs, tc.size, tc.namers, tc.procs-1)
			}
			switch {
			case tc.reject:
				if !errors.Is(waitErr, core.ErrNoSpace) {
					t.Fatalf("put failure: write=%v close=%v wait=%v, want ErrNoSpace from Wait", writeErr, closeErr, waitErr)
				}
			case tc.failNaming:
				if !errors.Is(closeErr, injected) || !errors.Is(waitErr, injected) {
					t.Fatalf("failure while naming: close=%v wait=%v, want the injected failure from both", closeErr, waitErr)
				}
			default:
				if writeErr != nil || closeErr != nil || waitErr != nil {
					t.Fatalf("write=%v close=%v wait=%v", writeErr, closeErr, waitErr)
				}
				if m := w.Metrics(); m.Uploaded != int64(tc.size) {
					t.Fatalf("uploaded %d of %d bytes", m.Uploaded, tc.size)
				}
			}
			tr.check()
			if tr.pinned != 0 {
				t.Fatalf("%d bytes of pooled buffers still out", tr.pinned)
			}
			// Puts dialed the pool and probes the router; their goroutines go with the client.
			cl.Close()
			writerGoroutinesGone(t, baseline)
		})
	}
}
