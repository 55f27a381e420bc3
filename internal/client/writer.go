package client

import (
	"fmt"
	"sync"
	"time"

	"stdchk/internal/chunker"
	"stdchk/internal/core"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// Writer is one write session. The application writes sequentially and
// closes; Close marks the application-perceived end of the checkpoint
// operation (the OAB endpoint) while Wait blocks until all remote I/O has
// completed and the chunk-map is committed (the ASB endpoint).
//
// The three protocols differ in what happens between Write and the
// benefactor uploads:
//
//   - sliding-window: Write lands in a bounded memory buffer that uploader
//     goroutines drain directly to the stripe; no local disk at all.
//   - incremental: Write fills bounded in-memory temporary files; each full
//     temp file is handed to a background pusher, overlapping data creation
//     with remote propagation.
//   - complete-local: Write stages the whole image on the local disk
//     (paced by its model); the push to stdchk happens only after Close.
//
// The remote data path is a pipeline of recycled chunk buffers: the
// application (or pusher) thread fills pooled buffers, a hashing stage
// computes SHA-1 off the application thread and batches dedup probes into
// one MHasChunks RPC per in-flight window, and per-stripe-node uploaders
// stream the chunks out and return the buffers to the pool. The
// application thread therefore pays only the memcpy into the buffer — no
// hashing, no allocation, no per-chunk manager RPCs — and waits in one
// place only: admit, when Config.BufferBytes is full. The queue ahead of
// the hasher holds whatever the window admitted; it has no count bound
// of its own that the application could meet first.
//
// Uploads open no connection of their own: every BPut rides the client's
// shared multiplexed pool (Client.dataPool), as many at once as
// Config.BufferBytes holds chunks (at most maxNodePuts per node), and the
// pool's connections coalesce the frames queued behind a transmission
// into the next one. An unreachable stripe node therefore surfaces at the
// first put to it, as a session failure from Write, Close and Wait — not
// at Create.
//
// With Config.Chunking == ChunkCbCH the filling thread additionally runs a
// streaming rolling-hash boundary finder, so cuts are content-anchored
// (variable-size spans) instead of offset-anchored; the downstream stages
// are size-agnostic and unchanged. That scan is work the application
// thread does, at about SHA-1 speed, not a wait.
type Writer struct {
	c        *Client
	name     string
	protocol Protocol

	openedAt time.Time

	mu           sync.Mutex
	cond         *sync.Cond
	err          error         // sticky first failure
	failed       chan struct{} // closed when err is first set
	inflight     int64         // bytes accepted but not yet stored remotely
	commitChunks []proto.CommitChunk
	closedAt     time.Time
	storedAt     time.Time
	written      int64
	uploaded     int64 // bytes actually moved to benefactors
	deduped      int64 // bytes skipped thanks to FsCH dedup
	closed       bool

	sess      proto.AllocResp
	chunkSize int64 // fixed chunk size, or the CbCH max span bound
	reserved  int64

	// cbch, when non-nil, is the streaming content-defined boundary
	// finder: instead of cutting at fixed chunkSize offsets, the filling
	// thread scans each application write with a rolling hash and emits
	// variable-size spans (cbch.Params().Min..Max). The rest of the
	// pipeline — hashing stage, dedup batching, round-robin uploaders —
	// is size-agnostic and unchanged.
	cbch *chunker.Stream

	cur      *[]byte // pooled buffer being filled; nil between chunks
	chunkIdx int

	workers  []*uploadWorker // one per stripe node; fixed after newWriter
	workerWg sync.WaitGroup

	// hashing stage between the filling thread and the uploaders
	hashQ  chunkQueue
	hashWg sync.WaitGroup

	bufferWait time.Duration // time admit spent waiting on the window

	// incremental-write staging
	temp      []byte
	tempQueue chan []byte
	pushWg    sync.WaitGroup

	done    chan struct{}
	waitErr error
}

// uploadWorker is one stripe node's upload queue: chunks bound to the node
// by round-robin wait in ch for its uploader to send them.
type uploadWorker struct {
	id   core.NodeID
	addr string
	ch   chan hashedChunk
}

// chunkItem is a filled, not-yet-hashed chunk travelling from the filling
// thread to the hashing stage. flush asks the hasher to probe/dispatch its
// current batch once this chunk is folded in (set at the end of a Write
// call and at end of file, so a whole application write becomes one dedup
// probe).
type chunkItem struct {
	idx   int
	buf   *[]byte
	flush bool
}

// hashedChunk is a chunk with its content name, staged for one batched
// dedup probe and then dispatch to its round-robin stripe worker.
type hashedChunk struct {
	idx int
	id  core.ChunkID
	buf *[]byte
}

// chunkQueue is the FIFO between the filling thread and the hasher: one
// producer, one consumer, and no capacity of its own — what bounds it is
// the write window its chunks were admitted against. It grows on demand,
// so a small checkpoint pays for a few slots, not for a window's worth.
// init must be called before use.
type chunkQueue struct {
	mu     sync.Mutex
	ready  sync.Cond // an item was pushed or the queue closed
	items  []chunkItem
	head   int // items[:head] have been popped
	closed bool
}

func (q *chunkQueue) init() { q.ready.L = &q.mu }

func (q *chunkQueue) push(item chunkItem) {
	q.mu.Lock()
	q.items = append(q.items, item)
	q.mu.Unlock()
	q.ready.Signal()
}

// close marks the end of the stream; pop still returns what is queued.
func (q *chunkQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Signal()
}

// pop returns the oldest item. On an empty queue it reports false — at
// once when wait is false, otherwise only after close.
func (q *chunkQueue) pop(wait bool) (item chunkItem, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) {
		if !wait || q.closed {
			return item, false
		}
		q.ready.Wait()
	}
	item = q.items[q.head]
	q.items[q.head] = chunkItem{} // keep no reference to a popped buffer
	q.head++
	if q.head == len(q.items) {
		q.items, q.head = q.items[:0], 0
	}
	return item, true
}

// maxProbeBatch caps how many chunk IDs one MHasChunks dedup probe
// carries.
const maxProbeBatch = 32

// maxNodePuts caps the put goroutines one Writer runs per stripe node. It
// is sized to a default donor's dispatch budget — wire.DefaultConnInflight
// concurrent handlers on each of the data pool's connections to it — past
// which the donor serves a frame inline on the connection's read loop and
// more puts in flight buy nothing. The write window is Config.BufferBytes,
// not this.
const maxNodePuts = dataPoolConnsPerAddr * wire.DefaultConnInflight

func newWriter(c *Client, name string) (*Writer, error) {
	w := &Writer{
		c:        c,
		name:     name,
		protocol: c.cfg.Protocol,
		openedAt: time.Now(),
		failed:   make(chan struct{}),
		done:     make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)

	chunkSize := c.cfg.ChunkSize
	if chunkSize <= 0 {
		chunkSize = core.DefaultChunkSize
	}
	if c.cfg.Chunking == ChunkCbCH {
		// Variable-size session: the max span bound plays the chunk-size
		// role everywhere sizes matter — pooled buffer capacity, the
		// manager's per-chunk validation bound, reservation rounding.
		w.cbch = chunker.NewStream(c.cfg.CbCH)
		chunkSize = w.cbch.Params().Max
	}
	req := proto.AllocReq{
		Name:         name,
		StripeWidth:  c.cfg.StripeWidth,
		ChunkSize:    chunkSize,
		Variable:     w.cbch != nil,
		ReserveBytes: c.cfg.ReserveQuantum,
		Replication:  c.cfg.Replication,
		Writer:       c.cfg.Writer,
	}
	sess, err := c.mgr.Alloc(req)
	if err != nil {
		return nil, fmt.Errorf("client: create %s: %w", name, err)
	}
	w.sess = sess
	if len(sess.Stripe) == 0 {
		w.abort()
		return nil, fmt.Errorf("client: create %s: manager allocated an empty stripe", name)
	}
	w.chunkSize = chunkSize
	w.reserved = c.cfg.ReserveQuantum

	for _, st := range sess.Stripe {
		worker := &uploadWorker{id: st.ID, addr: st.Addr, ch: make(chan hashedChunk, 4)}
		w.workers = append(w.workers, worker)
		w.workerWg.Add(1)
		go w.runUploader(worker)
	}

	w.hashQ.init()
	w.hashWg.Add(1)
	go w.runHasher()

	if w.protocol == IncrementalWrite {
		// Capacity one bounds outstanding temp files to: one being
		// filled, one queued, one being pushed.
		w.tempQueue = make(chan []byte, 1)
		w.pushWg.Add(1)
		go w.runTempPusher()
	}
	return w, nil
}

// Name returns the file name being written.
func (w *Writer) Name() string { return w.name }

// Write implements io.Writer. Data is accepted in application-sized blocks
// and re-chunked to the striping chunk size.
func (w *Writer) Write(p []byte) (int, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, core.ErrClosed
	}
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		return 0, err
	}
	w.written += int64(len(p))
	w.mu.Unlock()

	if err := w.ensureReservation(); err != nil {
		return 0, err
	}

	switch w.protocol {
	case SlidingWindow:
		w.c.cfg.Mem.Acquire(len(p))
		return len(p), w.appendChunked(p)
	case IncrementalWrite:
		w.c.cfg.Mem.Acquire(len(p))
		return len(p), w.appendTemp(p)
	case CompleteLocalWrite:
		if w.c.cfg.LocalDisk != nil {
			w.c.cfg.LocalDisk.Write(len(p))
		} else {
			w.c.cfg.Mem.Acquire(len(p))
		}
		w.mu.Lock()
		w.temp = append(w.temp, p...)
		w.mu.Unlock()
		return len(p), nil
	default:
		return 0, fmt.Errorf("client: unknown protocol %v", w.protocol)
	}
}

// ensureReservation extends the eager space reservation as the file grows.
// However many quanta a Write jumps past the current reservation, the gap
// is covered with a single MExtend RPC (rounded up to whole quanta).
func (w *Writer) ensureReservation() error {
	w.mu.Lock()
	need := w.written - w.reserved
	w.mu.Unlock()
	if need <= 0 {
		return nil
	}
	quantum := w.c.cfg.ReserveQuantum
	ext := (need + quantum - 1) / quantum * quantum
	if _, err := w.c.mgr.Extend(w.name, proto.ExtendReq{WriteID: w.sess.WriteID, Bytes: ext}); err != nil {
		w.fail(fmt.Errorf("extend reservation: %w", err))
		return err
	}
	w.mu.Lock()
	w.reserved += ext
	w.mu.Unlock()
	return nil
}

// appendChunked accumulates bytes into pooled chunk buffers and emits
// completed chunks to the hashing stage. Fixed mode cuts at chunkSize
// offsets; CbCH mode cuts wherever the streaming boundary finder anchors a
// span end (at most chunkSize bytes, its max bound, so the pooled buffer
// never reallocates). The chunk completing when p runs out is flagged to
// flush the hasher's dedup batch, so one application Write maps to at most
// one dedup probe.
func (w *Writer) appendChunked(p []byte) error {
	for len(p) > 0 {
		if w.cur == nil {
			w.cur = w.c.getChunkBuf(w.chunkSize)
		}
		take, cut := w.nextCut(p)
		*w.cur = append(*w.cur, p[:take]...)
		p = p[take:]
		if cut {
			buf := w.cur
			w.cur = nil
			if err := w.emitChunk(buf, len(p) == 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// nextCut decides how many of p's bytes extend the current chunk and
// whether they complete it. The CbCH stream tracks the span length
// internally and stays in lockstep with w.cur because every byte it
// accepts is appended there.
func (w *Writer) nextCut(p []byte) (take int, cut bool) {
	if w.cbch != nil {
		return w.cbch.Feed(p)
	}
	room := int(w.chunkSize) - len(*w.cur)
	if room > len(p) {
		return len(p), false
	}
	return room, true
}

// appendTemp implements the incremental-write staging.
func (w *Writer) appendTemp(p []byte) error {
	limit := w.c.cfg.TempFileBytes
	for len(p) > 0 {
		room := limit - int64(len(w.temp))
		take := int64(len(p))
		if take > room {
			take = room
		}
		w.temp = append(w.temp, p[:take]...)
		p = p[take:]
		if int64(len(w.temp)) >= limit {
			if err := w.flushTemp(); err != nil {
				return err
			}
		}
	}
	return nil
}

// flushTemp hands the current temp file to the background pusher. Blocks
// when too many temps are outstanding, which is what bounds local space
// usage (the point of incremental writes over complete-local writes).
// Backpressure is a plain channel send raced against the failure signal,
// so waiting costs no wakeups.
func (w *Writer) flushTemp() error {
	if len(w.temp) == 0 {
		return nil
	}
	t := w.temp
	w.temp = nil
	select {
	case w.tempQueue <- t:
		return nil
	case <-w.failed:
		w.mu.Lock()
		err := w.err
		w.mu.Unlock()
		return err
	}
}

func (w *Writer) runTempPusher() {
	defer w.pushWg.Done()
	for t := range w.tempQueue {
		// Temp files are bounded and short-lived: they are read back
		// from the OS cache, so the push pays a memory copy, not a disk
		// read (the complete-local protocol, whose staged file is
		// large, does pay the disk read). This extra copy is what keeps
		// incremental writes slightly behind the sliding window.
		w.c.cfg.Mem.Acquire(len(t))
		if err := w.appendChunked(t); err != nil {
			w.fail(err)
		}
	}
}

// admit is the one place a session waits for room: it blocks while the
// write window (Config.BufferBytes) cannot take n more bytes — unless the
// window is empty, so a chunk larger than the whole window still passes —
// and then counts them in flight. w.mu must be held.
func (w *Writer) admit(n int64) error {
	full := func() bool {
		return w.err == nil && w.inflight+n > w.c.cfg.BufferBytes && w.inflight > 0
	}
	if full() {
		start := time.Now()
		for full() {
			w.cond.Wait()
		}
		w.bufferWait += time.Since(start)
	}
	if w.err != nil {
		return w.err
	}
	w.inflight += n
	return nil
}

// emitChunk hands a full (or final short) chunk to the hashing stage,
// taking ownership of the pooled buffer. It blocks while the in-memory
// window is full, and on nothing else; hashing, dedup and upload all
// happen downstream, off this thread.
func (w *Writer) emitChunk(buf *[]byte, flush bool) error {
	n := int64(len(*buf))
	w.mu.Lock()
	if err := w.admit(n); err != nil {
		w.mu.Unlock()
		w.c.putChunkBuf(buf)
		return err
	}
	idx := w.chunkIdx
	w.chunkIdx++
	w.growCommitChunks(idx + 1)
	w.commitChunks[idx].Size = n
	w.mu.Unlock()

	w.hashQ.push(chunkItem{idx: idx, buf: buf, flush: flush})
	return nil
}

func (w *Writer) growCommitChunks(n int) {
	for len(w.commitChunks) < n {
		w.commitChunks = append(w.commitChunks, proto.CommitChunk{})
	}
}

// runHasher is the hashing stage: it names chunks (SHA-1) off the
// application thread and gathers them into batches that cost one MHasChunks
// dedup probe each. A batch closes on a flush marker (end of an application
// Write), on reaching maxProbeBatch, or when the queue momentarily runs dry
// — whichever comes first — so chunks are never held back waiting for more.
func (w *Writer) runHasher() {
	defer w.hashWg.Done()
	batch := make([]hashedChunk, 0, maxProbeBatch)
	ids := make([]core.ChunkID, 0, maxProbeBatch)
	for {
		item, ok := w.hashQ.pop(true)
		if !ok {
			return
		}
		flush := w.hashInto(&batch, item)
		for !flush {
			next, ok := w.hashQ.pop(false)
			if !ok {
				break // queue dry: probe what we have
			}
			flush = w.hashInto(&batch, next)
		}
		w.flushBatch(batch, ids)
		batch = batch[:0]
	}
}

// hashInto names one chunk, records it in the commit map, and folds it
// into the pending batch. It reports whether the batch should flush now.
func (w *Writer) hashInto(batch *[]hashedChunk, item chunkItem) bool {
	id := core.HashChunk(*item.buf)
	w.mu.Lock()
	w.commitChunks[item.idx].ID = id
	w.mu.Unlock()
	*batch = append(*batch, hashedChunk{idx: item.idx, id: id, buf: item.buf})
	return item.flush || len(*batch) >= maxProbeBatch
}

// flushBatch resolves one batch: a single dedup probe (when incremental
// checkpointing is on), then dispatch of the misses to their round-robin
// stripe workers and release of the hits.
func (w *Writer) flushBatch(batch []hashedChunk, ids []core.ChunkID) {
	if len(batch) == 0 {
		return
	}
	w.mu.Lock()
	err := w.err
	w.mu.Unlock()
	if err != nil {
		w.releaseChunks(batch)
		return
	}
	if !w.c.cfg.Incremental {
		for _, hc := range batch {
			w.dispatch(hc)
		}
		return
	}
	ids = ids[:0]
	for _, hc := range batch {
		ids = append(ids, hc.id)
	}
	present, err := w.c.mgr.HasChunks(w.name, ids)
	if err != nil {
		w.fail(fmt.Errorf("dedup query: %w", err))
		w.releaseChunks(batch)
		return
	}
	for i, hc := range batch {
		if i < len(present) && present[i] {
			// Chunk already stored: copy-on-write reuse, no upload.
			n := int64(len(*hc.buf))
			w.mu.Lock()
			w.deduped += n
			w.inflight -= n
			w.cond.Broadcast()
			w.mu.Unlock()
			w.c.putChunkBuf(hc.buf)
			continue
		}
		w.dispatch(hc)
	}
}

// dispatch routes one named chunk to its round-robin stripe worker. Only
// the hasher calls it, and finish waits the hasher out before teardown
// closes the worker channels.
func (w *Writer) dispatch(hc hashedChunk) {
	w.workers[hc.idx%len(w.workers)].ch <- hc
}

// releaseChunks drops a batch on the failure path: window accounting is
// unwound and every buffer goes back to the pool exactly once.
func (w *Writer) releaseChunks(batch []hashedChunk) {
	var n int64
	for _, hc := range batch {
		n += int64(len(*hc.buf))
	}
	w.mu.Lock()
	w.inflight -= n
	w.cond.Broadcast()
	w.mu.Unlock()
	for _, hc := range batch {
		w.c.putChunkBuf(hc.buf)
	}
}

// runUploader is one stripe node's upload loop: every chunk the write
// window (Config.BufferBytes) let through to this node rides the client's
// shared multiplexed pool at once, up to maxNodePuts, so a chunk's send
// does not wait for the previous chunk's ack — on a high-latency path the
// buffer, not the RTT, sets the upload rate, and the puts that queue
// behind a transmission leave as one. It is its own goroutine so that
// starting a put never costs the hasher its processor (direct dispatch
// from the hasher: lan_64k OAB −28%). Acks settle in any order: recordUpload
// appends locations to commitChunks[idx] under the session lock and the
// commit map is index-addressed, so completion order is irrelevant. Any
// failed put fails the whole session (sticky), after which queued chunks
// drain unsent; the loop returns only when every in-flight call has
// settled, so every pooled buffer is back exactly once. The pool copies or
// writes a body before Call returns, so returning the buffer is safe.
func (w *Writer) runUploader(worker *uploadWorker) {
	defer w.workerWg.Done()
	var calls sync.WaitGroup
	window := make(chan struct{}, maxNodePuts)
	for item := range worker.ch {
		n := int64(len(*item.buf))
		w.mu.Lock()
		failed := w.err != nil
		w.mu.Unlock()
		if failed {
			w.settleUpload(item, n)
			continue
		}
		window <- struct{}{}
		calls.Add(1)
		go func() {
			defer calls.Done()
			defer func() { <-window }()
			_, err := w.c.dataPool.Call(worker.addr, proto.BPut, proto.PutReq{ID: item.id}, *item.buf, nil)
			if err != nil {
				w.fail(fmt.Errorf("upload chunk %d to stripe node %s: %w", item.idx, worker.addr, err))
			} else {
				w.recordUpload(item, worker, n)
			}
			w.settleUpload(item, n)
		}()
	}
	calls.Wait()
}

// settleUpload unwinds one chunk's write-window accounting and returns
// its buffer to the pool, after its upload completed, failed, or was
// skipped on an already-failed session.
func (w *Writer) settleUpload(item hashedChunk, n int64) {
	w.mu.Lock()
	w.inflight -= n
	w.cond.Broadcast()
	w.mu.Unlock()
	w.c.putChunkBuf(item.buf)
}

func (w *Writer) recordUpload(item hashedChunk, worker *uploadWorker, n int64) {
	w.mu.Lock()
	w.uploaded += n
	w.commitChunks[item.idx].Locations = append(w.commitChunks[item.idx].Locations, worker.id)
	w.mu.Unlock()
}

// fail records the first error and wakes all waiters.
func (w *Writer) fail(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.err = err
		close(w.failed)
	}
	w.cond.Broadcast()
}

// Close ends the application's write. Semantics per protocol:
// sliding-window and incremental return once the remaining data has been
// handed to the background pipeline; complete-local returns once the local
// staging copy is complete (its push starts now). With pessimistic
// semantics Close additionally blocks until the configured replication
// level is reached.
func (w *Writer) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return core.ErrClosed
	}
	w.closed = true
	firstErr := w.err
	w.mu.Unlock()

	var closeErr error
	if firstErr == nil {
		switch w.protocol {
		case SlidingWindow:
			if w.cur != nil {
				buf := w.cur
				w.cur = nil
				closeErr = w.emitChunk(buf, true)
			}
		case IncrementalWrite:
			closeErr = w.flushTemp()
		case CompleteLocalWrite:
			// Local staging already complete; push happens in background.
		}
	} else if w.cur != nil && w.protocol == SlidingWindow {
		w.c.putChunkBuf(w.cur)
		w.cur = nil
	}

	w.mu.Lock()
	w.closedAt = time.Now()
	w.mu.Unlock()

	// finish() owns pipeline drain and teardown even on the error path,
	// so background goroutines never race a closing channel.
	go w.finish()
	if closeErr != nil {
		return closeErr
	}
	if firstErr != nil {
		return firstErr
	}

	if w.c.cfg.Semantics == core.WritePessimistic {
		if err := w.Wait(); err != nil {
			return err
		}
		return w.awaitReplication()
	}
	return nil
}

// finish drains the pipeline, commits the chunk-map (session semantics)
// and, when configured, pushes map replicas to the stripe benefactors.
func (w *Writer) finish() {
	defer close(w.done)

	if w.protocol == IncrementalWrite {
		close(w.tempQueue)
		w.pushWg.Wait()
		if w.cur != nil {
			buf := w.cur
			w.cur = nil
			if err := w.emitChunk(buf, true); err != nil {
				w.waitErr = err
			}
		}
	}
	if w.protocol == CompleteLocalWrite {
		// Push the staged file: the read back from local disk is paced
		// by the disk model (a complete staged image does not fit the
		// cache), then chunks flow through the regular upload path.
		data := w.temp
		w.temp = nil
		if w.c.cfg.LocalDisk != nil {
			w.c.cfg.LocalDisk.Read(len(data))
		}
		if err := w.appendChunked(data); err != nil {
			w.waitErr = err
		}
		if w.cur != nil {
			buf := w.cur
			w.cur = nil
			if err := w.emitChunk(buf, true); err != nil && w.waitErr == nil {
				w.waitErr = err
			}
		}
	}

	// All producers are done: drain the hashing stage, then the uploaders.
	w.hashQ.close()
	w.hashWg.Wait()
	w.mu.Lock()
	for w.err == nil && w.inflight > 0 {
		w.cond.Wait()
	}
	err := w.err
	w.mu.Unlock()
	w.teardown()
	if err != nil && w.waitErr == nil {
		w.waitErr = err
	}
	if w.waitErr != nil {
		w.abort()
		return
	}

	if err := w.commit(); err != nil {
		w.waitErr = err
		return
	}
	w.mu.Lock()
	w.storedAt = time.Now()
	w.mu.Unlock()
}

// teardown closes the worker channels and waits for the uploaders to
// drain. finish calls it once, after the hasher — the only sender — exited.
func (w *Writer) teardown() {
	for _, worker := range w.workers {
		close(worker.ch)
	}
	w.workerWg.Wait()
}

// commit atomically publishes the chunk-map.
func (w *Writer) commit() error {
	w.mu.Lock()
	chunks := make([]proto.CommitChunk, len(w.commitChunks))
	copy(chunks, w.commitChunks)
	written := w.written
	w.mu.Unlock()

	req := proto.CommitReq{WriteID: w.sess.WriteID, FileSize: written, Chunks: chunks}
	resp, err := w.c.mgr.Commit(w.name, req)
	if err != nil {
		return fmt.Errorf("commit %s: %w", w.name, err)
	}

	if w.c.cfg.PushMapReplicas {
		w.pushMapReplicas(resp, chunks)
	}
	return nil
}

// pushMapReplicas stores copies of the committed chunk-map on the stripe
// benefactors so a failed manager can be reconstructed by quorum
// (paper §IV.A).
func (w *Writer) pushMapReplicas(resp proto.CommitResp, chunks []proto.CommitChunk) {
	cm := &core.ChunkMap{
		Dataset:   resp.Dataset,
		Version:   resp.Version,
		FileSize:  w.written,
		ChunkSize: w.chunkSize,
		Variable:  w.cbch != nil,
		CreatedAt: time.Now(),
	}
	for i, ch := range chunks {
		cm.Chunks = append(cm.Chunks, core.ChunkRef{Index: i, ID: ch.ID, Size: ch.Size})
		cm.Locations = append(cm.Locations, append([]core.NodeID(nil), ch.Locations...))
	}
	for _, worker := range w.workers {
		req := proto.MapPutReq{Name: w.name, Map: cm}
		if _, err := w.c.dataPool.Call(worker.addr, proto.BMapPut, req, nil, nil); err != nil {
			w.c.logf("push map replica to %s: %v", worker.addr, err)
		}
	}
}

// pessimisticTimeout bounds the pessimistic-write replication wait.
const pessimisticTimeout = 2 * time.Minute

// awaitReplication implements the pessimistic write semantics: poll the
// manager until the dataset's replication target is met.
func (w *Writer) awaitReplication() error {
	deadline := time.Now().Add(pessimisticTimeout)
	for {
		st, err := w.c.mgr.ReplStatus(w.name)
		if err == nil && st.Level >= st.Target {
			return nil
		}
		if time.Now().After(deadline) {
			if err != nil {
				return fmt.Errorf("pessimistic wait on %s: %w", w.name, err)
			}
			return fmt.Errorf("pessimistic wait on %s: level %d < target %d after %v",
				w.name, st.Level, st.Target, pessimisticTimeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Wait blocks until the image is stored and committed (the ASB endpoint).
func (w *Writer) Wait() error {
	<-w.done
	return w.waitErr
}

// abort releases the manager-side session after a failure.
func (w *Writer) abort() {
	_ = w.c.mgr.Abort(w.name, proto.AbortReq{WriteID: w.sess.WriteID})
}

// Metrics exposes the timing and byte counters the evaluation uses.
type WriteMetrics struct {
	// Bytes is the application file size.
	Bytes int64
	// Uploaded is the number of bytes actually transferred to
	// benefactors (the network effort).
	Uploaded int64
	// Deduped is the number of bytes skipped by incremental
	// checkpointing.
	Deduped int64
	// OpenToClose is the application-perceived duration (OAB interval).
	OpenToClose time.Duration
	// OpenToStored is the time until all remote I/O completed and the
	// map committed (ASB interval).
	OpenToStored time.Duration
	// BufferWait is the total time the session's filling thread — under
	// the sliding-window protocol the application, inside Write and
	// Close — waited for room in the Config.BufferBytes window. It is
	// the only wait the pipeline imposes on that thread: zero when the
	// image fits the buffer.
	BufferWait time.Duration
}

// OABMBps is the observed application bandwidth in decimal MB/s.
func (m WriteMetrics) OABMBps() float64 {
	if m.OpenToClose <= 0 {
		return 0
	}
	return float64(m.Bytes) / 1e6 / m.OpenToClose.Seconds()
}

// ASBMBps is the achieved storage bandwidth in decimal MB/s.
func (m WriteMetrics) ASBMBps() float64 {
	if m.OpenToStored <= 0 {
		return 0
	}
	return float64(m.Bytes) / 1e6 / m.OpenToStored.Seconds()
}

// Metrics returns the session's measurements. Valid after Wait.
func (w *Writer) Metrics() WriteMetrics {
	w.mu.Lock()
	defer w.mu.Unlock()
	m := WriteMetrics{
		Bytes:      w.written,
		Uploaded:   w.uploaded,
		Deduped:    w.deduped,
		BufferWait: w.bufferWait,
	}
	if !w.closedAt.IsZero() {
		m.OpenToClose = w.closedAt.Sub(w.openedAt)
	}
	if !w.storedAt.IsZero() {
		m.OpenToStored = w.storedAt.Sub(w.openedAt)
	}
	return m
}
