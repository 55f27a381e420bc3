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
//   - incremental: Write fills bounded temporary files; each full temp
//     file is handed to the background stage, overlapping data creation
//     with remote propagation.
//   - complete-local: Write stages the whole image on the local disk
//     (paced by its model); the push to stdchk happens only after Close.
//
// The remote data path is a pipeline of recycled buffers: the application
// thread copies into pooled buffers, a hashing stage computes SHA-1 off the
// application thread and batches dedup probes into one MHasChunks RPC per
// in-flight window, and per-stripe-node uploaders stream the chunks out
// and release them. The application thread therefore pays only the memcpy
// into the buffer — no hashing, no allocation, no per-chunk manager RPCs —
// and waits in one place only: admit, when Config.BufferBytes is full. The
// queues between the stages hold whatever the window admitted; they have
// no count bound of their own that the application could meet first.
//
// Uploads open no connection of their own: every BPut rides the client's
// shared multiplexed pool (Client.dataPool), as many at once as
// Config.BufferBytes holds chunks (at most maxNodePuts per node), and the
// pool's connections coalesce the frames queued behind a transmission
// into the next one. An unreachable stripe node therefore surfaces at the
// first put to it, as a session failure from Write, Close and Wait — not
// at Create.
//
// A fixed-size sliding-window write cuts on the application thread, into
// one-chunk buffers: offsets cost nothing to find. Every other write is
// staged: Write copies into pooled segments, and a stage goroutine cuts
// chunks out of them as slices that pin their segment. With
// Config.Chunking == ChunkCbCH the cuts are content-anchored by a rolling
// hash (variable-size spans) — a scan at about SHA-1 speed that the
// application thread does not wait for; the stages after it are
// size-agnostic.
type Writer struct {
	c        *Client
	name     string
	protocol Protocol

	openedAt time.Time

	mu           sync.Mutex
	cond         sync.Cond     // on mu: the window, the temp count or err moved
	err          error         // sticky first failure
	failed       chan struct{} // closed when err is first set
	inflight     int64         // window bytes admitted and not yet released
	held         int64         // the most of those the stage can hold until more arrive
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

	// cbch, when non-nil, is the streaming content-defined boundary finder
	// the stage cuts with: variable-size spans (cbch.Params().Min..Max)
	// instead of fixed chunkSize offsets.
	cbch *chunker.Stream

	cur      *pooledBuf // fixed-size sliding window: the chunk being filled
	chunkIdx int

	// Staging: Write fills seg up to fill; pending holds ranges not yet
	// handed to the stage (the temp file being filled, or the whole
	// complete-local image). copyAdmits: Write admits the bytes it copies.
	copyAdmits bool
	seg        *pooledBuf
	fill       int
	pending    []segRange
	tempBytes  int64
	temps      int // temp files handed to the stage and not yet cut (mu)
	stageQ     fifo[segRange]
	stageWg    sync.WaitGroup

	workers  []*uploadWorker // one per stripe node; fixed after newWriter
	workerWg sync.WaitGroup

	// hashing stage between the cutting thread and the uploaders
	hashQ  fifo[chunkItem]
	hashWg sync.WaitGroup

	bufferWait time.Duration // time admit spent waiting on the window

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

// chunk is one chunk in flight: its bytes, the pooled buffer they pin, and
// cost, what it holds of the write window — its length, plus a max span
// when its buffer is a carry.
type chunk struct {
	data []byte
	buf  *pooledBuf
	cost int64
}

// bufChunk is the chunk that is the whole of a chunk buffer.
func bufChunk(pb *pooledBuf) chunk {
	return chunk{data: pb.b, buf: pb, cost: int64(len(pb.b))}
}

// chunkItem is a cut, not-yet-hashed chunk travelling to the hashing stage.
// flush asks the hasher to probe/dispatch its current batch once this
// chunk is folded in (set on the last chunk of an application Write or of
// a staging segment, and at end of file, so a write or a segment becomes
// one dedup probe).
type chunkItem struct {
	idx int
	chunk
	flush bool
}

// hashedChunk is a chunk with its content name, staged for one batched
// dedup probe and then dispatch to its round-robin stripe worker.
type hashedChunk struct {
	idx int
	id  core.ChunkID
	chunk
}

// segRange is a staging segment's bytes from where the stage left off up
// to end. last marks the end of a temp file.
type segRange struct {
	seg  *pooledBuf
	end  int
	last bool
}

// fifo is a queue between two pipeline stages: one producer, one consumer,
// and no capacity of its own — what bounds it is the write window its
// items were admitted against. It grows on demand past the slots init
// gives it, so a small checkpoint pays for a few slots, not for a window's
// worth. init must be called before use.
type fifo[T any] struct {
	mu     sync.Mutex
	ready  sync.Cond // an item was pushed or the queue closed
	items  []T
	head   int // items[:head] have been popped
	closed bool
}

func (q *fifo[T]) init(slots int) { q.ready.L, q.items = &q.mu, make([]T, 0, slots) }

func (q *fifo[T]) push(item T) {
	q.mu.Lock()
	q.items = append(q.items, item)
	q.mu.Unlock()
	q.ready.Signal()
}

// close marks the end of the stream; pop still returns what is queued.
func (q *fifo[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Signal()
}

// pop returns the oldest item. On an empty queue it reports false — at
// once when wait is false, otherwise only after close.
func (q *fifo[T]) pop(wait bool) (item T, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) {
		if !wait || q.closed {
			return item, false
		}
		q.ready.Wait()
	}
	item = q.items[q.head]
	var zero T
	q.items[q.head] = zero // keep no reference to a popped buffer
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
	w.cond.L = &w.mu

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
	var sess proto.AllocResp
	if err := c.mgr.Call(proto.MAlloc, name, &req, &sess); err != nil {
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

	w.hashQ.init(0)
	w.hashWg.Add(1)
	go w.runHasher()

	if w.staged() {
		if w.copyAdmits = w.protocol == SlidingWindow; w.copyAdmits {
			w.held = 2 * chunkSize // an open span and the reservation of its carry
		}
		w.stageQ.init(8) // a few segments' ranges: rarely regrown
		w.stageWg.Add(1)
		go w.runStage()
	}
	return w, nil
}

// staged reports whether Write copies into segments for the stage to cut.
func (w *Writer) staged() bool { return w.protocol != SlidingWindow || w.cbch != nil }

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
	case SlidingWindow, IncrementalWrite:
		w.c.cfg.Mem.Acquire(len(p))
	case CompleteLocalWrite:
		if w.c.cfg.LocalDisk != nil {
			w.c.cfg.LocalDisk.Write(len(p))
		} else {
			w.c.cfg.Mem.Acquire(len(p))
		}
	default:
		return 0, fmt.Errorf("client: unknown protocol %v", w.protocol)
	}
	if !w.staged() {
		return len(p), w.appendChunked(p)
	}
	return len(p), w.stage(p)
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
	if err := w.c.mgr.Call(proto.MExtend, w.name, &proto.ExtendReq{WriteID: w.sess.WriteID, Bytes: ext}, nil); err != nil {
		w.fail(fmt.Errorf("extend reservation: %w", err))
		return err
	}
	w.mu.Lock()
	w.reserved += ext
	w.mu.Unlock()
	return nil
}

// appendChunked is the fixed-size sliding window's filling path: it
// accumulates bytes into pooled one-chunk buffers on the application
// thread and emits each full chunk to the hashing stage. The chunk
// completing when p runs out is flagged to flush the hasher's dedup batch,
// so one application Write maps to at most one dedup probe.
func (w *Writer) appendChunked(p []byte) error {
	for len(p) > 0 {
		if w.cur == nil {
			w.cur = w.c.getChunkBuf(w.chunkSize)
		}
		take, cut := w.nextCut(p, int64(len(w.cur.b)))
		w.cur.b = append(w.cur.b, p[:take]...)
		p = p[take:]
		if cut {
			buf := w.cur
			w.cur = nil
			if err := w.emitChunk(bufChunk(buf), len(p) == 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// nextCut decides how many of p's bytes extend a span that already holds
// span bytes, and whether they complete it. The CbCH stream tracks the
// span internally and stays in lockstep because every byte it accepts
// joins the span.
func (w *Writer) nextCut(p []byte, span int64) (take int, cut bool) {
	if w.cbch != nil {
		return w.cbch.Feed(p)
	}
	room := w.chunkSize - span
	if room > int64(len(p)) {
		return len(p), false
	}
	return int(room), true
}

// stage copies p into staging segments: the one copy the application
// pays. Under the sliding window each piece is admitted as it is copied —
// a segment after the first also reserves a max span for the carry of the
// span that may cross into it — and goes to the stage at once. Incremental
// writes hand theirs over a temp file at a time, complete-local after
// Close; their stage admits each chunk it cuts.
func (w *Writer) stage(p []byte) error {
	for len(p) > 0 {
		fresh := w.seg == nil || w.fill == segmentSize
		n := min(len(p), segmentSize-w.fill%segmentSize)
		if w.protocol == IncrementalWrite {
			n = min(n, int(w.c.cfg.TempFileBytes-w.tempBytes))
		}
		if w.copyAdmits {
			cost := int64(n)
			if fresh && w.seg != nil {
				cost += w.chunkSize
			}
			w.mu.Lock()
			err := w.admit(cost)
			w.mu.Unlock()
			if err != nil {
				return err
			}
		}
		if fresh {
			w.seg, w.fill = w.c.getSegment(), 0
		}
		copy(w.seg.b[w.fill:], p[:n])
		w.fill += n
		p = p[n:]
		if w.copyAdmits {
			w.stageQ.push(segRange{seg: w.seg, end: w.fill})
			continue
		}
		if k := len(w.pending) - 1; k >= 0 && w.pending[k].seg == w.seg {
			w.pending[k].end = w.fill
		} else {
			w.pending = append(w.pending, segRange{seg: w.seg, end: w.fill})
		}
		if w.protocol == IncrementalWrite {
			if w.tempBytes += int64(n); w.tempBytes == w.c.cfg.TempFileBytes {
				if err := w.flushTemp(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// flushTemp hands the current temp file to the stage. Blocks while two
// temp files are outstanding — one queued, one being pushed — which is
// what bounds local space usage (the point of incremental writes over
// complete-local writes).
func (w *Writer) flushTemp() error {
	if len(w.pending) == 0 {
		return nil
	}
	w.mu.Lock()
	for w.err == nil && w.temps >= 2 {
		w.cond.Wait()
	}
	w.temps++
	err := w.err
	w.mu.Unlock()
	if err != nil {
		return err
	}
	w.pending[len(w.pending)-1].last = true
	for _, r := range w.pending {
		w.stageQ.push(r)
	}
	w.pending, w.tempBytes = w.pending[:0], 0
	return nil
}

// runStage is a staged writer's cutting stage, the incremental protocol's
// temp pusher generalised. It feeds the ranges it is handed to nextCut and
// emits each chunk as a slice of its segment, holding a reference. A span
// still open when its segment runs out is copied into a chunk buffer, the
// carry, and finished there. A segment's last chunk closes the hasher's
// probe batch. A temp file is modelled as read back from the OS cache:
// the stage pays that read's memory pace. On a failed session it drops
// what it is handed.
func (w *Writer) runStage() {
	defer w.stageWg.Done()
	var (
		seg   *pooledBuf // being cut; the stage holds the reference it came with
		pos   int        // how far into seg the cuts have looked
		start int        // where the open span begins in seg
		span  int64      // the open span's length
		carry *pooledBuf // the open span's bytes, once it crossed into seg
	)
	cut := func() chunk {
		ch := chunk{cost: span}
		if carry != nil {
			ch.data, ch.buf, carry = carry.b, carry, nil
			ch.cost += w.chunkSize
		} else {
			seg.refs.Add(1)
			ch.data, ch.buf = seg.b[start:pos], seg
		}
		start, span = pos, 0
		return ch
	}
	for {
		r, ok := w.stageQ.pop(true)
		if !ok {
			break
		}
		live := !w.hasFailed()
		if r.seg != seg {
			if seg != nil {
				// The reservation Write made for this boundary goes to the
				// carry of a span crossing it, or back to the window.
				if live && span > 0 && carry == nil {
					carry = w.c.getChunkBuf(w.chunkSize)
					carry.b = append(carry.b, seg.b[start:pos]...)
				} else if w.copyAdmits {
					w.unwind(w.chunkSize)
				}
				w.c.unref(seg)
			}
			seg, pos, start = r.seg, 0, 0
		}
		if w.protocol == IncrementalWrite {
			w.c.cfg.Mem.Acquire(r.end - pos)
		}
		var last chunk // emitted once the next cut shows it is not the range's last
		for p := seg.b[pos:r.end]; live && len(p) > 0; {
			take, end := w.nextCut(p, span)
			if carry != nil {
				carry.b = append(carry.b, p[:take]...)
			}
			p, pos, span = p[take:], pos+take, span+int64(take)
			if end {
				if last.buf != nil {
					live = w.emitChunk(last, false) == nil
				}
				last = cut()
			}
		}
		pos = r.end
		if last.buf != nil {
			// A failed emit released the chunk; the next range sees the failure.
			_ = w.emitChunk(last, r.end == segmentSize || r.last)
		}
		if r.last {
			w.mu.Lock()
			w.temps--
			w.cond.Broadcast()
			w.mu.Unlock()
		}
	}
	if seg == nil {
		return
	}
	if span > 0 && !w.hasFailed() {
		_ = w.emitChunk(cut(), true) // failing, it released the chunk: nothing follows
	} else if carry != nil {
		w.c.unref(carry)
	}
	w.c.unref(seg)
}

// hasFailed reports whether the session has failed.
func (w *Writer) hasFailed() bool {
	select {
	case <-w.failed:
		return true
	default:
		return false
	}
}

// admit is the one place a session waits for room: it blocks while the
// write window (Config.BufferBytes) cannot take n more bytes — unless it
// holds no more than w.held, which is what the stage may hold until more
// bytes arrive (and zero when the stage admits: an empty window), so a
// chunk larger than the whole window still passes — and then counts them
// in flight. w.mu must be held.
func (w *Writer) admit(n int64) error {
	full := func() bool {
		return w.err == nil && w.inflight+n > w.c.cfg.BufferBytes && w.inflight > w.held
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

// emitChunk hands a cut chunk to the hashing stage, taking over its
// reference. Unless its bytes were admitted as they were copied, it first
// waits for room in the write window, and on nothing else; hashing, dedup
// and upload all happen downstream, off this thread.
func (w *Writer) emitChunk(ch chunk, flush bool) error {
	w.mu.Lock()
	if !w.copyAdmits {
		if err := w.admit(ch.cost); err != nil {
			w.mu.Unlock()
			w.c.unref(ch.buf)
			return err
		}
	}
	idx := w.chunkIdx
	w.chunkIdx++
	w.growCommitChunks(idx + 1)
	w.commitChunks[idx].Size = int64(len(ch.data))
	w.mu.Unlock()

	w.hashQ.push(chunkItem{idx: idx, chunk: ch, flush: flush})
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
// Write or of a staging segment), on reaching maxProbeBatch, or when the
// queue momentarily runs dry — whichever comes first — so chunks are never
// held back waiting for more.
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
	id := core.HashChunk(item.data)
	w.mu.Lock()
	w.commitChunks[item.idx].ID = id
	w.mu.Unlock()
	*batch = append(*batch, hashedChunk{idx: item.idx, id: id, chunk: item.chunk})
	return item.flush || len(*batch) >= maxProbeBatch
}

// flushBatch resolves one batch: a single dedup probe (when incremental
// checkpointing is on), then dispatch of the misses to their round-robin
// stripe workers and release of the hits.
func (w *Writer) flushBatch(batch []hashedChunk, ids []core.ChunkID) {
	if len(batch) == 0 {
		return
	}
	if w.hasFailed() {
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
	var has proto.HasResp
	if err := w.c.mgr.Call(proto.MHasChunks, w.name, &proto.HasReq{IDs: ids}, &has); err != nil {
		w.fail(fmt.Errorf("dedup query: %w", err))
		w.releaseChunks(batch)
		return
	}
	for i, hc := range batch {
		if i < len(has.Present) && has.Present[i] {
			// Chunk already stored: copy-on-write reuse, no upload.
			w.mu.Lock()
			w.deduped += int64(len(hc.data))
			w.mu.Unlock()
			w.release(hc.chunk)
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

// releaseChunks drops a batch on the failure path.
func (w *Writer) releaseChunks(batch []hashedChunk) {
	for _, hc := range batch {
		w.release(hc.chunk)
	}
}

// release is a chunk's one way out of the pipeline — after its upload
// completed or failed, on a dedup hit, or when a failed session drops it:
// its cost leaves the write window and its reference to its buffer is
// dropped, exactly once.
func (w *Writer) release(ch chunk) {
	w.unwind(ch.cost)
	w.c.unref(ch.buf)
}

// unwind returns n bytes to the write window.
func (w *Writer) unwind(n int64) {
	w.mu.Lock()
	w.inflight -= n
	w.cond.Broadcast()
	w.mu.Unlock()
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
// settled, so every chunk is released exactly once. The pool copies or
// writes a body before Call returns, so releasing the chunk then is safe.
func (w *Writer) runUploader(worker *uploadWorker) {
	defer w.workerWg.Done()
	var calls sync.WaitGroup
	window := make(chan struct{}, maxNodePuts)
	for item := range worker.ch {
		if w.hasFailed() {
			w.release(item.chunk)
			continue
		}
		window <- struct{}{}
		calls.Add(1)
		go func() {
			defer calls.Done()
			defer func() { <-window }()
			_, err := w.c.dataPool.Call(worker.addr, proto.BPut, proto.PutReq{ID: item.id}, item.data, nil)
			if err != nil {
				w.fail(fmt.Errorf("upload chunk %d to stripe node %s: %w", item.idx, worker.addr, err))
			} else {
				w.recordUpload(item, worker)
			}
			w.release(item.chunk)
		}()
	}
	calls.Wait()
}

func (w *Writer) recordUpload(item hashedChunk, worker *uploadWorker) {
	w.mu.Lock()
	w.uploaded += int64(len(item.data))
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

	// On a failed session these hand back what they were given.
	var closeErr error
	if buf := w.cur; buf != nil {
		w.cur = nil
		closeErr = w.emitChunk(bufChunk(buf), true)
	} else if w.protocol == IncrementalWrite {
		closeErr = w.flushTemp()
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

	if w.staged() {
		if w.protocol == CompleteLocalWrite && w.c.cfg.LocalDisk != nil {
			// The push reads the staged image back from local disk, paced
			// by the disk model: a complete staged image does not fit the
			// cache.
			w.c.cfg.LocalDisk.Read(int(w.written))
		}
		// What was staged and not handed over — the complete-local image,
		// or what a failed session left — goes to the stage, which cuts it
		// or drops it; then the stage drains.
		for _, r := range w.pending {
			w.stageQ.push(r)
		}
		w.pending = nil
		w.stageQ.close()
		w.stageWg.Wait()
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
	var resp proto.CommitResp
	if err := w.c.mgr.Call(proto.MCommit, w.name, &req, &resp); err != nil {
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
		var st proto.ReplStatusResp
		err := w.c.mgr.Call(proto.MReplStatus, w.name, &proto.ReplStatusReq{Name: w.name}, &st)
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
	_ = w.c.mgr.Call(proto.MAbort, w.name, &proto.AbortReq{WriteID: w.sess.WriteID}, nil)
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
	// BufferWait is the total time the session's admitting thread — under
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
