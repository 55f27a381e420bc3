package client

import (
	"fmt"
	"runtime"
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
// thread copies into pooled staging segments, a stage goroutine cuts
// chunks out of them, a batcher (helped by namers on spare cores) names
// them by SHA-1 and batches dedup probes into one MHasChunks RPC per
// in-flight window, and per-stripe-node uploaders stream the chunks out
// and release them. The application thread therefore pays only the memcpy
// into the segment — no cutting, no hashing, no allocation, no per-chunk
// manager RPCs — and waits in one place only: admit, when
// Config.BufferBytes is full. The queues between the stages hold whatever
// the window admitted; they have no count bound of their own that the
// application could meet first.
//
// Uploads open no connection of their own: every BPut rides the client's
// shared multiplexed pool (Client.dataPool), as many at once as
// Config.BufferBytes holds chunks (at most maxNodePuts per node), and the
// pool's connections coalesce the frames queued behind a transmission
// into the next one. An unreachable stripe node therefore surfaces at the
// first put to it, as a session failure from Write, Close and Wait — not
// at Create.
//
// Every write is staged the same way: the stage cuts each chunk as a
// slice that pins its segment. Fixed-size chunks end at ChunkSize offsets,
// and a segment holds a whole number of them, so none crosses into the
// next. With Config.Chunking == ChunkCbCH the cuts are content-anchored by
// a rolling hash (variable-size spans) — a scan at about twice SHA-1's
// speed that the application thread does not wait for — and a span
// crossing a segment boundary is finished in a carry. The stages after
// the cut are size-agnostic.
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

	chunkIdx int

	// Staging: Write fills seg up to fill, and a segment up to segLen;
	// pending holds ranges not yet handed to the stage (the temp file
	// being filled, or the whole complete-local image). copyAdmits: Write
	// admits the bytes it copies.
	copyAdmits bool
	seg        *pooledBuf
	fill       int
	segLen     int
	pending    []segRange
	tempBytes  int64
	temps      int // temp files handed to the stage and not yet cut (mu)
	stageQ     fifo[segRange]

	workers  []*uploadWorker // one per stripe node; fixed after newWriter
	workerWg sync.WaitGroup

	// naming stage between the cutting stage and the uploaders
	hashQ  fifo[chunkItem]
	hashWg sync.WaitGroup
	queued int64 // bytes emitted to hashQ and not yet taken by the batcher (mu)
	namers int   // namer goroutines started (mu)

	bufferWait time.Duration // time admit spent waiting on the window

	done    chan struct{}
	waitErr error
}

// uploadWorker is one stripe node's upload queue: chunks bound to the node
// by round-robin wait in ch for its uploader to send them.
type uploadWorker struct {
	id   core.NodeID
	addr string
	ch   chan chunkItem
}

// chunk is one chunk in flight: its bytes, the pooled buffer they pin, and
// cost, what it holds of the write window — its length, plus a max span
// when its buffer is a carry.
type chunk struct {
	data []byte
	buf  *pooledBuf
	cost int64
}

// chunkItem is a cut chunk on its way to the uploaders; id is its SHA-1
// once named. flush asks the batcher to probe/dispatch its current batch
// once this chunk is folded in (set at the end of a temp file or of the
// file, and on a CbCH segment's last chunk, so such a segment becomes at
// most one dedup probe per maxProbeBatch spans). Fixed chunks set it on no
// segment boundary: a 1 MB segment holds a single 1 MB chunk.
type chunkItem struct {
	idx   int
	id    core.ChunkID
	named bool
	chunk
	flush bool
}

// segRange is a staging segment's bytes from where the stage left off up
// to end. last marks the end of a temp file.
type segRange struct {
	seg  *pooledBuf
	end  int
	last bool
}

// fifo is a queue between two pipeline stages: one producer and one
// consumer that pops in order — for the hash queue, the batcher, which
// namers may run ahead of (see take). It has no capacity of its own — what
// bounds it is the write window its items were admitted against. It grows
// on demand past the slots init gives it, so a small checkpoint pays for a
// few slots, not for a window's worth. init must be called before use.
type fifo[T any] struct {
	mu      sync.Mutex
	ready   sync.Cond // an item was pushed or named, or the queue closed
	items   []T
	head    int // items[:head] have been popped
	claimed int // items[head:claimed] are being or have been named
	closed  bool
}

func (q *fifo[T]) init(slots int) { q.ready.L, q.items = &q.mu, make([]T, 0, slots) }

func (q *fifo[T]) push(item T) {
	q.mu.Lock()
	q.items = append(q.items, item)
	q.mu.Unlock()
	q.ready.Broadcast()
}

// close marks the end of the stream; pop still returns what is queued.
func (q *fifo[T]) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.ready.Broadcast()
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
	return q.popHead(), true
}

// popHead pops the oldest item of a non-empty queue. q.mu must be held.
func (q *fifo[T]) popHead() (item T) {
	item = q.items[q.head]
	var zero T
	q.items[q.head] = zero // keep no reference to a popped buffer
	q.head++
	q.claimed = max(q.claimed, q.head)
	if q.head == len(q.items) {
		q.items, q.head, q.claimed = q.items[:0], 0, 0
	}
	return item
}

// maxProbeBatch caps how many chunk IDs one MHasChunks dedup probe
// carries.
const maxProbeBatch = 32

// maxNodePuts caps the put goroutines one Writer runs per stripe node. It
// is sized to a donor's dispatch budget — wire.DefaultConnInflight
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

	w.workers = make([]*uploadWorker, 0, len(sess.Stripe))
	for _, st := range sess.Stripe {
		worker := &uploadWorker{id: st.ID, addr: st.Addr, ch: make(chan chunkItem, 4)}
		w.workers = append(w.workers, worker)
		w.workerWg.Add(1)
		go w.runUploader(worker)
	}

	w.hashQ.init(0)
	w.hashWg.Add(1)
	go w.runHasher()

	// A segment holds whole fixed chunks — one chunk when it is larger
	// than a segment — so the stage never carries one.
	w.segLen = segmentSize
	if w.cbch == nil {
		w.segLen = max(int(chunkSize), segmentSize-segmentSize%int(chunkSize))
	}
	if w.copyAdmits = w.protocol == SlidingWindow; w.copyAdmits {
		w.held = 2 * chunkSize // an open CbCH span and the reservation of its carry
		if w.cbch == nil {
			w.held = chunkSize - 1 // an open fixed chunk
		}
	}
	w.stageQ.init(8) // a few segments' ranges: rarely regrown
	go w.runStage()
	return w, nil
}

// Name returns the file name being written.
func (w *Writer) Name() string { return w.name }

// Write implements io.Writer. Data is accepted in application-sized blocks
// and copied into staging segments; the stage re-chunks it behind Write.
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
// pays. Under the sliding window each piece is admitted as it is copied
// and goes to the stage at once: as much of the segment's room as the
// window has room for, once it has room for a chunk, so a window of a
// few chunks stays pipelined — one acknowledgement lets the next chunk
// in. Under CbCH a segment after the first also reserves a max span for
// the carry of the span that may cross into it. Incremental writes hand
// theirs over a temp file at a time, complete-local after Close; their
// stage admits each chunk it cuts.
func (w *Writer) stage(p []byte) error {
	for len(p) > 0 {
		fresh := w.seg == nil || w.fill == w.segLen
		n := min(len(p), w.segLen-w.fill%w.segLen)
		if w.protocol == IncrementalWrite {
			n = min(n, int(w.c.cfg.TempFileBytes-w.tempBytes))
		}
		if w.copyAdmits {
			var carry int64 // the reservation for a span crossing into a fresh segment
			if fresh && w.seg != nil && w.cbch != nil {
				carry = w.chunkSize
			}
			w.mu.Lock()
			got, err := w.admit(carry+min(int64(n), w.chunkSize), carry+int64(n))
			w.mu.Unlock()
			if err != nil {
				return err
			}
			n = int(got - carry)
		}
		if fresh {
			w.seg, w.fill = w.c.getSegment(w.segLen), 0
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

// runStage is the writer's cutting stage, the incremental protocol's temp
// pusher generalised. It feeds the ranges it is handed to nextCut and
// emits each chunk as a slice of its segment, holding a reference. A CbCH
// span still open when its segment runs out is copied into a chunk
// buffer, the carry, and finished there. A CbCH segment's last span and a
// temp file's last chunk close the batcher's probe batch. A temp file is modelled as read back from the OS
// cache, the complete-local image from the local disk: the stage pays that
// read's pace. On a failed session it drops what it is handed. Once Close
// has closed its queue and it has cut the rest, it finishes the session.
func (w *Writer) runStage() {
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
			if seg == nil && w.protocol == CompleteLocalWrite {
				// Close handed over the whole image, read back at once: it
				// does not fit the cache.
				w.mu.Lock()
				written := w.written
				w.mu.Unlock()
				w.c.cfg.LocalDisk.Read(int(written))
			}
			if seg != nil {
				// The reservation Write made for this boundary goes to the
				// carry of a span crossing it, or back to the window.
				if live && span > 0 && carry == nil {
					carry = w.c.getChunkBuf(w.chunkSize)
					carry.b = append(carry.b, seg.b[start:pos]...)
				} else if w.copyAdmits && w.cbch != nil {
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
			_ = w.emitChunk(last, r.last || w.cbch != nil && r.end == w.segLen)
		}
		if r.last {
			w.mu.Lock()
			w.temps--
			w.cond.Broadcast()
			w.mu.Unlock()
		}
	}
	if span > 0 && !w.hasFailed() {
		_ = w.emitChunk(cut(), true) // failing, it released the chunk: nothing follows
	} else if carry != nil {
		w.c.unref(carry)
	}
	if seg != nil {
		w.c.unref(seg)
	}
	w.finish()
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
// write window (Config.BufferBytes) cannot take least more bytes — unless
// it holds no more than w.held, which is what the stage may hold until
// more bytes arrive (and zero when the stage admits: an empty window), so
// a chunk larger than the whole window still passes — and then counts in
// flight as many of the n bytes offered as fit, and least at the fewest.
// It returns how many it counted. w.mu must be held.
func (w *Writer) admit(least, n int64) (int64, error) {
	full := func() bool {
		return w.err == nil && w.inflight+least > w.c.cfg.BufferBytes && w.inflight > w.held
	}
	if full() {
		start := time.Now()
		for full() {
			w.cond.Wait()
		}
		w.bufferWait += time.Since(start)
	}
	if w.err != nil {
		return 0, w.err
	}
	n = max(least, min(n, w.c.cfg.BufferBytes-w.inflight))
	w.inflight += n
	return n, nil
}

// emitChunk hands a cut chunk to the batcher, taking over its reference.
// Unless its bytes were admitted as they were copied, it first waits for
// room in the write window, and on nothing else; hashing, dedup and upload
// all happen downstream, off this thread. Once a segment's worth of bytes
// waits to be named it starts a namer, up to one per spare processor.
func (w *Writer) emitChunk(ch chunk, flush bool) error {
	w.mu.Lock()
	if !w.copyAdmits {
		if _, err := w.admit(ch.cost, ch.cost); err != nil {
			w.mu.Unlock()
			w.c.unref(ch.buf)
			return err
		}
	}
	idx := w.chunkIdx
	w.chunkIdx++
	w.growCommitChunks(idx + 1)
	w.commitChunks[idx].Size = int64(len(ch.data))
	w.queued += int64(len(ch.data))
	spawn := w.queued >= segmentSize && w.namers < runtime.GOMAXPROCS(0)-1
	if spawn {
		w.namers++
	}
	w.mu.Unlock()

	w.hashQ.push(chunkItem{idx: idx, chunk: ch, flush: flush})
	if spawn {
		w.hashWg.Add(1) // the batcher still holds hashWg: finish has not begun waiting
		go w.runNamer()
	}
	return nil
}

func (w *Writer) growCommitChunks(n int) {
	for len(w.commitChunks) < n {
		w.commitChunks = append(w.commitChunks, proto.CommitChunk{})
	}
}

// runHasher is the batcher: it takes chunks in cut order, names those no
// namer has (SHA-1) off the application thread, and gathers them into
// batches that cost one MHasChunks dedup probe each. A batch closes on a
// flush marker (see chunkItem), on reaching maxProbeBatch, or when the
// queue momentarily runs dry — whichever comes first — so chunks are never
// held back waiting for more. Without incremental checkpointing there is
// no probe to share: each chunk is dispatched as soon as it is named.
func (w *Writer) runHasher() {
	defer w.hashWg.Done()
	batch := make([]chunkItem, 0, maxProbeBatch)
	ids := make([]core.ChunkID, 0, maxProbeBatch)
	for {
		item, ok := w.take(true)
		if !ok {
			return
		}
		flush := w.hashInto(&batch, item)
		for !flush {
			next, ok := w.take(false)
			if !ok {
				break // queue dry: probe what we have
			}
			flush = w.hashInto(&batch, next)
		}
		w.flushBatch(batch, ids)
		batch = batch[:0]
	}
}

// take pops the oldest queued chunk for the batcher — named by a namer, or
// unclaimed, for the batcher to name — and names the next unclaimed chunk
// itself while a namer still holds the oldest. On an empty queue it
// reports false: at once when wait is false, otherwise only after close.
func (w *Writer) take(wait bool) (item chunkItem, ok bool) {
	q := &w.hashQ
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		switch {
		case q.head == len(q.items):
			if !wait || q.closed {
				return item, false
			}
			q.ready.Wait()
		case q.head == q.claimed || q.items[q.head].named:
			return q.popHead(), true
		case !w.nameAhead():
			q.ready.Wait() // for the namer holding the oldest
		}
	}
}

// nameAhead claims the oldest chunk nobody has claimed and names it in
// place, dropping q.mu meanwhile; the batcher pops no claimed chunk before
// it is named, so its slot stays put. It reports false when none is left
// to claim. w.hashQ.mu must be held.
func (w *Writer) nameAhead() bool {
	q := &w.hashQ
	i := q.claimed
	if i == len(q.items) {
		return false
	}
	q.claimed++
	data := q.items[i].data
	q.mu.Unlock()
	id := hashChunk(data)
	q.mu.Lock()
	q.items[i].id, q.items[i].named = id, true
	q.ready.Broadcast()
	return true
}

// runNamer names queued chunks ahead of the batcher until the queue closes.
func (w *Writer) runNamer() {
	defer w.hashWg.Done()
	q := &w.hashQ
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed || q.claimed < len(q.items) {
		if !w.nameAhead() {
			q.ready.Wait()
		}
	}
}

var hashChunk = core.HashChunk // a variable so tests can count the names

// hashInto names one chunk unless a namer has, records it in the commit
// map, and folds it into the pending batch. It reports whether the batch
// should flush now.
func (w *Writer) hashInto(batch *[]chunkItem, item chunkItem) bool {
	if !item.named {
		item.id = hashChunk(item.data)
	}
	w.mu.Lock()
	w.commitChunks[item.idx].ID = item.id
	w.queued -= int64(len(item.data))
	w.mu.Unlock()
	*batch = append(*batch, item)
	return item.flush || len(*batch) >= maxProbeBatch || !w.c.cfg.Incremental
}

// flushBatch resolves one batch: a single dedup probe (when incremental
// checkpointing is on), then dispatch of the misses to their round-robin
// stripe workers and release of the hits.
func (w *Writer) flushBatch(batch []chunkItem, ids []core.ChunkID) {
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
// the batcher calls it — namers only name — and finish waits the batcher
// out before teardown closes the worker channels.
func (w *Writer) dispatch(hc chunkItem) {
	w.workers[hc.idx%len(w.workers)].ch <- hc
}

// releaseChunks drops a batch on the failure path.
func (w *Writer) releaseChunks(batch []chunkItem) {
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
// starting a put never costs the batcher its processor (direct dispatch
// from the batcher: lan_64k OAB −28%). Acks settle in any order: recordUpload
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

func (w *Writer) recordUpload(item chunkItem, worker *uploadWorker) {
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

	// On a failed session this hands back what it was given.
	var closeErr error
	if w.protocol == IncrementalWrite {
		closeErr = w.flushTemp()
	}
	// What was staged and not handed over — the complete-local image, or
	// what a failed session left — goes to the stage, which cuts it or
	// drops it and then finishes the session: pipeline drain and teardown
	// happen there even on the error path, so no goroutine races a closing
	// channel.
	for _, r := range w.pending {
		w.stageQ.push(r)
	}
	w.pending = nil
	w.mu.Lock()
	w.closedAt = time.Now()
	w.mu.Unlock()
	w.stageQ.close()
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
// and, when configured, pushes map replicas to the stripe benefactors. The
// stage runs it once it has cut everything.
func (w *Writer) finish() {
	defer close(w.done)

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
// drain. finish calls it once, after the batcher — the only sender — exited.
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
	// the sliding-window protocol the application, inside Write — waited
	// for room in the Config.BufferBytes window. It is the only wait the
	// pipeline imposes on that thread: zero when the image fits the buffer.
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
