package client

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"stdchk/internal/core"
	"stdchk/internal/namespace"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// baseline is an incremental-restore chunk source: the bytes of a version
// the caller already holds locally, indexed by content-based chunk name.
// A chunk of the opened version whose ID appears here is copied from the
// local bytes (hash-verified) instead of fetched over the network, so a
// restore onto a warm node fetches only the delta between the two
// versions. Verification makes a corrupt local baseline cost correctness
// nothing — a mismatched chunk silently falls back to the network.
type baseline struct {
	data  []byte
	index map[core.ChunkID]int64 // chunk ID -> first byte offset in data
}

// newBaseline indexes a local copy of baseline version cm. The data
// length must match the version's committed size — a truncated or grown
// local file means the caller's premise ("I hold version N") is wrong.
func newBaseline(cm *core.ChunkMap, data []byte) (*baseline, error) {
	if int64(len(data)) != cm.FileSize {
		return nil, fmt.Errorf("baseline data is %d bytes, version %d holds %d", len(data), cm.Version, cm.FileSize)
	}
	b := &baseline{data: data, index: make(map[core.ChunkID]int64, len(cm.Chunks))}
	var off int64
	for _, ref := range cm.Chunks {
		if _, dup := b.index[ref.ID]; !dup {
			b.index[ref.ID] = off
		}
		off += ref.Size
	}
	return b, nil
}

// chunk returns the local bytes for ref if the baseline holds them and
// they verify against the chunk's content-based name.
func (b *baseline) chunk(ref core.ChunkRef) ([]byte, bool) {
	off, ok := b.index[ref.ID]
	if !ok || off+ref.Size > int64(len(b.data)) {
		return nil, false
	}
	local := b.data[off : off+ref.Size]
	if core.HashChunk(local) != ref.ID {
		return nil, false
	}
	return local, true
}

// Reader streams one committed version of a checkpoint image. Chunks are
// prefetched in parallel (read-ahead) from the benefactors named in the
// chunk-map; a fetch that fails on one replica falls over to the next
// (paper §IV.E: read performance via read-ahead and caching; §IV.A:
// replicas provide availability).
//
// The prefetch window is bounded in bytes, not chunks, so variable-size
// (CbCH) maps — whose spans range from tens of KB to the max bound — hold
// a stable amount of memory in flight regardless of boundary luck.
//
// One scheduler feeds the window: each refill groups its chunks by their
// preferred replica and issues one BGetBatch request per node over the
// client's shared multiplexed pool, closing a batch at readBatchIDs IDs
// or at wire.MaxPooledBuf body bytes, whichever comes first. A group
// of one chunk goes as a plain BGet whose pooled body is handed to the
// application as is. A miss inside a batch — node down, chunk absent,
// integrity failure — demotes only the affected chunks to that per-chunk
// fetch, which walks the chunk's replicas over the same pool; chunks the
// batch did serve are never re-fetched (per-chunk, not per-batch,
// failover). A chunk whose every listed replica failed costs the Reader
// one re-fetch of its version's map, for replicas repair added since the
// open. ReadAheadBytes at or below the smallest chunk is stop-and-wait.
type Reader struct {
	c    *Client
	name string
	// cm may be shared with the client's chunk-map cache and with other
	// Readers of the same version; it is immutable here.
	cm *core.ChunkMap
	// locs is the per-chunk replica preference order, computed once at
	// map-install time (newReader) rather than per fetch: the manager
	// serves location sets in sorted order, so without a per-reader
	// rotation every reader of every chunk would hammer the
	// lexicographically first replica while the others idle. Rotating by
	// chunk index spreads one reader's fetches across the stripe;
	// failover still walks the full list. Building the order here also
	// keeps fetch from touching (or re-ordering) the shared map.
	locs [][]core.NodeID
	// base, when non-nil, serves chunks shared with a local baseline
	// version without touching the network (incremental restore).
	base *baseline
	// refresh guards the one re-fetch of this version's map a Reader may
	// make, and fresh holds its answer (nil if it failed or never ran);
	// see untried.
	refresh sync.Once
	fresh   *core.ChunkMap

	// bytesFetched / bytesLocal split the bytes handed to the application
	// by source: network fetches vs. hash-verified local baseline copies.
	bytesFetched atomic.Int64
	bytesLocal   atomic.Int64
	// bytesBatched counts the subset of bytesFetched served by BGetBatch
	// replies rather than per-chunk BGets — the observable that proves
	// batching engaged instead of silently falling back.
	bytesBatched atomic.Int64

	mu       sync.Mutex
	pending  map[int]chan fetchResult
	next     int // next chunk index to hand to the application
	off      int // offset within the current chunk
	cur      fetchResult
	started  int   // chunks dispatched so far
	inflight int64 // bytes dispatched but not yet handed to the application
	budget   int64 // read-ahead window in bytes
	closed   bool
	err      error
}

// fetchResult is one chunk delivered to its pending channel. data is
// either a pooled buffer of its own or, when batch is set, a slice of
// that batch's reply body.
type fetchResult struct {
	data  []byte
	batch *batch
	err   error
}

// release hands the chunk's memory back: its own buffer to the wire pool,
// or its reference to the batch reply.
func (res fetchResult) release() {
	if res.batch != nil {
		res.batch.release()
	} else if res.data != nil {
		wire.PutBuf(res.data)
	}
}

// batch is one BGetBatch round trip — its request IDs, reply and reply
// body in one allocation. The chunks it serves alias the body instead of
// copying out of it: each delivered chunk holds a reference, as does
// fetchBatch while it frames the reply, and the last release returns the
// body to the wire pool. A body stays pinned until its last chunk is
// consumed, and a refill's chunks go to the application in map order, so
// a reader pins at most about 2 × ReadAheadBytes of bodies: the window in
// flight plus the consumed part of the refill the application is reading.
type batch struct {
	c    *Client
	ids  [readBatchIDs]core.ChunkID
	resp proto.BatchGetResp
	body []byte
	refs atomic.Int32
}

func (b *batch) release() {
	if b.refs.Add(-1) == 0 && b.body != nil {
		if b.c.onBatchBody != nil {
			b.c.onBatchBody(b.body, false)
		}
		wire.PutBuf(b.body)
	}
}

func newReader(c *Client, name string, cm *core.ChunkMap) *Reader {
	locs := make([][]core.NodeID, len(cm.Locations))
	for i, replicas := range cm.Locations {
		ordered := make([]core.NodeID, len(replicas))
		if n := len(replicas); n > 0 {
			rot := i % n
			copy(ordered, replicas[rot:])
			copy(ordered[n-rot:], replicas[:rot])
		}
		locs[i] = ordered
	}
	r := &Reader{
		c:       c,
		name:    name,
		cm:      cm,
		locs:    locs,
		budget:  c.cfg.ReadAheadBytes,
		pending: make(map[int]chan fetchResult),
	}
	r.warmAddrs()
	return r
}

// warmAddrs pre-resolves every non-address node ID in the chunk map
// while the manager is still reachable, so an already-opened reader
// keeps working through a managerless window (the reader holds the map
// AND the addresses). Best-effort: on failure resolution falls back to
// the lazy per-read path.
func (r *Reader) warmAddrs() {
	need := false
	r.c.benefMu.Lock()
scan:
	for _, replicas := range r.locs {
		for _, node := range replicas {
			if strings.ContainsRune(string(node), ':') {
				continue
			}
			if _, ok := r.c.benefAddrs[node]; !ok {
				need = true
				break scan
			}
		}
	}
	r.c.benefMu.Unlock()
	if !need {
		return
	}
	infos, err := r.c.Benefactors()
	if err != nil {
		return
	}
	r.c.benefMu.Lock()
	for _, info := range infos {
		r.c.benefAddrs[info.ID] = info.Addr
	}
	r.c.benefMu.Unlock()
}

// Name returns the file name of the opened version.
func (r *Reader) Name() string { return r.name }

// Size returns the file size.
func (r *Reader) Size() int64 { return r.cm.FileSize }

// Map returns a copy of the chunk-map (diagnostics, tooling).
func (r *Reader) Map() *core.ChunkMap { return r.cm.Clone() }

// BytesFetched reports how many bytes this reader pulled over the
// network so far (chunks dispatched count once they verify).
func (r *Reader) BytesFetched() int64 { return r.bytesFetched.Load() }

// BytesLocal reports how many bytes were served from the incremental-
// restore baseline instead of the network (0 without a baseline).
func (r *Reader) BytesLocal() int64 { return r.bytesLocal.Load() }

// BytesBatched reports how many of the fetched bytes arrived in BGetBatch
// replies. It is less than BytesFetched by every chunk that travelled
// alone: a one-chunk group (always, at chunk sizes over half of
// wire.MaxPooledBuf) and every slot per-chunk failover had to re-fetch.
func (r *Reader) BytesBatched() int64 { return r.bytesBatched.Load() }

var _ io.ReadCloser = (*Reader)(nil)

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return 0, core.ErrClosed
	}
	if r.err != nil {
		return 0, r.err
	}
	if r.off >= len(r.cur.data) {
		if r.next >= len(r.cm.Chunks) {
			return 0, io.EOF
		}
		if err := r.advanceLocked(); err != nil {
			r.err = err
			return 0, err
		}
	}
	n := copy(p, r.cur.data[r.off:])
	r.off += n
	return n, nil
}

// advanceLocked ensures the read-ahead window is primed and blocks for the
// next chunk. Dispatch is bounded by the byte budget (always at least the
// chunk the application is waiting on), so a map of heterogeneous chunk
// sizes prefetches roughly the same number of bytes as a fixed-size one.
func (r *Reader) advanceLocked() error {
	// Refill hysteresis: top the window up only once it has drained to
	// half (or the consumer's chunk was never dispatched). Without it the
	// steady state dispatches exactly one chunk per chunk consumed, which
	// degrades every batch to a single-chunk request; draining to the
	// low-water mark keeps each refill wide enough for dispatch to group.
	if r.started == r.next || r.inflight <= r.budget/2 {
		from := r.started
		for r.started < len(r.cm.Chunks) && (r.started == r.next || r.inflight < r.budget) {
			r.pending[r.started] = make(chan fetchResult, 1)
			r.inflight += r.cm.Chunks[r.started].Size
			r.started++
		}
		r.dispatchLocked(from, r.started)
	}
	ch, ok := r.pending[r.next]
	if !ok {
		return fmt.Errorf("reader: chunk %d not scheduled", r.next)
	}
	delete(r.pending, r.next)
	r.mu.Unlock()
	res := <-ch
	r.mu.Lock()
	if r.closed {
		// Closed while blocked: the result has no consumer.
		res.release()
		return core.ErrClosed
	}
	if res.err != nil {
		return res.err
	}
	// The previous chunk has been fully copied out to the application;
	// its memory can go back.
	r.cur.release()
	r.cur = res
	r.off = 0
	r.inflight -= r.cm.Chunks[r.next].Size
	r.next++
	return nil
}

// readBatchIDs closes a BGetBatch request at 16 chunk IDs, well inside
// the benefactor's proto.MaxBatchIDs. At 64 KB chunks that is 1 MB, just
// inside wire.MaxPooledBuf, so the ID and byte bounds meet there.
const readBatchIDs = 16

// batchItem is one prefetch-window chunk staged for a batched read: its
// map index and the pending channel that must receive exactly one result.
type batchItem struct {
	idx int
	ch  chan fetchResult
}

// batchable reports whether a chunk should ride a BGetBatch request.
// Chunks the local baseline may serve, and chunks with no replicas at
// all, go straight to the per-chunk fetch, which handles both cases.
func (r *Reader) batchable(idx int) bool {
	if len(r.locs[idx]) == 0 {
		return false
	}
	if r.base != nil {
		if _, local := r.base.index[r.cm.Chunks[idx].ID]; local {
			return false
		}
	}
	return true
}

// dispatchLocked sends one refill of the window, chunks [from, to): they
// are grouped by preferred replica (the head of each chunk's rotated
// preference order, so one reader's batches still spread across the
// stripe) and each group goes out as BGetBatch requests that close at
// readBatchIDs IDs or at wire.MaxPooledBuf body bytes — so a reply
// always fits a pooled buffer on both ends, and 1 MB chunks travel one per
// request. A chunk left alone in its batch goes as a plain BGet.
func (r *Reader) dispatchLocked(from, to int) {
	if to-from == 1 { // nothing to group
		go r.fetch(from, r.pending[from])
		return
	}
	groups := make(map[core.NodeID][]batchItem)
	var order []core.NodeID
	for idx := from; idx < to; idx++ {
		if !r.batchable(idx) {
			go r.fetch(idx, r.pending[idx])
			continue
		}
		node := r.locs[idx][0]
		if _, ok := groups[node]; !ok {
			order = append(order, node)
		}
		groups[node] = append(groups[node], batchItem{idx: idx, ch: r.pending[idx]})
	}
	for _, node := range order {
		group := groups[node]
		for len(group) > 0 {
			n, size := 0, int64(0)
			for n < len(group) && n < readBatchIDs {
				size += r.cm.Chunks[group[n].idx].Size
				if n > 0 && size > wire.MaxPooledBuf {
					break
				}
				n++
			}
			if n == 1 {
				// Alone it needs no batch framing: the BGet body is the
				// chunk, handed to the application without a copy.
				go r.fetch(group[0].idx, group[0].ch)
			} else {
				go r.fetchBatch(node, group[:n])
			}
			group = group[n:]
		}
	}
}

// fetchBatch retrieves one node's share of a refill with a single
// BGetBatch request over the shared multiplexed pool. The reply carries
// per-slot sizes (-1 = unserved) and the served chunks concatenated in
// request order; each served chunk is hash-verified and delivered in
// place, as a slice of the reply body holding a reference to it (see
// batch). Any slot the batch could not serve — request-level
// transport failure, per-slot miss, integrity mismatch, malformed
// framing — falls back to the per-chunk fetch, which walks that chunk's
// replicas.
func (r *Reader) fetchBatch(node core.NodeID, items []batchItem) {
	fallback := func(rest []batchItem) {
		for _, it := range rest {
			go r.fetch(it.idx, it.ch)
		}
	}
	addr, err := r.resolve(node)
	if err != nil {
		fallback(items)
		return
	}
	b := &batch{c: r.c}
	b.refs.Store(1)
	defer b.release()
	ids := b.ids[:len(items)]
	for i, it := range items {
		ids[i] = r.cm.Chunks[it.idx].ID
	}
	b.body, err = r.c.dataPool.Call(addr, proto.BGetBatch, proto.BatchGetReq{IDs: ids}, nil, &b.resp)
	if b.body != nil && r.c.onBatchBody != nil {
		r.c.onBatchBody(b.body, true)
	}
	if err != nil || len(b.resp.Sizes) != len(items) {
		fallback(items)
		return
	}
	var off int64
	for i, it := range items {
		sz := b.resp.Sizes[i]
		if sz < 0 {
			go r.fetch(it.idx, it.ch)
			continue
		}
		if off+sz > int64(len(b.body)) {
			// Sizes promise more bytes than arrived: nothing at or past
			// this slot can be framed.
			fallback(items[i:])
			break
		}
		data := b.body[off : off+sz]
		off += sz
		ref := r.cm.Chunks[it.idx]
		if sz != ref.Size || core.HashChunk(data) != ref.ID {
			go r.fetch(it.idx, it.ch)
			continue
		}
		r.bytesFetched.Add(sz)
		r.bytesBatched.Add(sz)
		b.refs.Add(1)
		it.ch <- fetchResult{data: data, batch: b}
	}
}

// fetch retrieves one chunk, trying each replica in the preference order
// installed at open time, then any replica the version's current map adds
// (untried).
func (r *Reader) fetch(idx int, ch chan<- fetchResult) {
	ref := r.cm.Chunks[idx]
	if r.base != nil {
		if local, ok := r.base.chunk(ref); ok {
			// Copy into a wire buffer so every result, local or fetched,
			// returns to the pool the same way.
			buf := wire.GetBuf(len(local))
			copy(buf, local)
			r.bytesLocal.Add(ref.Size)
			ch <- fetchResult{data: buf}
			return
		}
	}
	body, err := r.fetchFrom(idx, r.locs[idx])
	if err != nil {
		if more := r.untried(idx); len(more) > 0 {
			body, err = r.fetchFrom(idx, more)
		}
	}
	if err != nil {
		ch <- fetchResult{err: fmt.Errorf("reader: %w", err)}
		return
	}
	r.bytesFetched.Add(int64(len(body)))
	ch <- fetchResult{data: body}
}

// fetchFrom tries nodes in order for chunk idx, verifying content
// integrity against the chunk's content-based name.
func (r *Reader) fetchFrom(idx int, nodes []core.NodeID) ([]byte, error) {
	ref := r.cm.Chunks[idx]
	var lastErr error
	for _, node := range nodes {
		addr, err := r.resolve(node)
		if err != nil {
			lastErr = err
			continue
		}
		body, err := r.c.dataPool.Call(addr, proto.BGet, proto.GetReq{ID: ref.ID}, nil, nil)
		if err != nil {
			lastErr = err
			continue
		}
		if core.HashChunk(body) != ref.ID {
			lastErr = fmt.Errorf("chunk %d from %s: %w", idx, node, core.ErrIntegrity)
			wire.PutBuf(body)
			continue
		}
		return body, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("chunk %d has no replicas: %w", idx, core.ErrNotFound)
	}
	return nil, lastErr
}

// untried returns the replicas of chunk idx that the version's current
// map names and the open-time map did not: background repair may have
// copied the chunk since that map was fetched, perhaps long ago into the
// client cache. The first call fetches the version's map again — by
// version, with no Have, since the cached copy is the stale one — and
// installs it in the client cache; later calls reuse that answer, so a
// Reader asks at most once. A closed Reader asks nothing.
func (r *Reader) untried(idx int) []core.NodeID {
	r.refresh.Do(func() {
		r.mu.Lock()
		closed := r.closed
		r.mu.Unlock()
		if closed {
			return
		}
		var resp proto.GetMapResp
		err := r.c.mgr.Call(proto.MGetMap, r.name, &proto.GetMapReq{Name: r.name, Version: r.cm.Version}, &resp)
		if err != nil || resp.Map == nil || len(resp.Map.Locations) != len(r.cm.Chunks) {
			return
		}
		r.c.maps.put(namespace.DatasetOf(resp.Name), resp.Name, resp.Map)
		r.fresh = resp.Map
	})
	if r.fresh == nil {
		return nil
	}
	var more []core.NodeID
	for _, node := range r.fresh.Locations[idx] {
		if !slices.Contains(r.locs[idx], node) {
			more = append(more, node)
		}
	}
	return more
}

// resolve maps a benefactor node ID to its current address. Node IDs
// default to their service address (host:port), which needs no lookup —
// committed data stays readable even while the manager is down. Custom
// IDs are resolved through the manager's registry and cached. A node the
// registry does not list is retryable, not missing: a manager that just
// took over lists a benefactor only once it has re-registered.
func (r *Reader) resolve(node core.NodeID) (string, error) {
	if strings.ContainsRune(string(node), ':') {
		return string(node), nil
	}
	r.c.benefMu.Lock()
	addr, ok := r.c.benefAddrs[node]
	r.c.benefMu.Unlock()
	if ok {
		return addr, nil
	}
	infos, err := r.c.Benefactors()
	if err != nil {
		return "", err
	}
	r.c.benefMu.Lock()
	for _, info := range infos {
		r.c.benefAddrs[info.ID] = info.Addr
	}
	addr, ok = r.c.benefAddrs[node]
	r.c.benefMu.Unlock()
	if !ok {
		return "", fmt.Errorf("benefactor %s not registered: %w", node, core.ErrRetryable)
	}
	return addr, nil
}

// ReadAll reads the whole version into memory. Fetched chunks are copied
// straight from their pool-backed buffers into the sized output slice —
// no intermediate scratch buffer.
func (r *Reader) ReadAll() ([]byte, error) {
	out := make([]byte, r.cm.FileSize)
	var n int
	for int64(n) < r.cm.FileSize {
		m, err := r.Read(out[n:])
		n += m
		if err == io.EOF {
			break
		}
		if err != nil {
			return out[:n], err
		}
	}
	return out[:n], nil
}

// Close releases the reader. Outstanding prefetches are drained
// asynchronously so their memory returns to the wire pool instead of
// leaking: each in-flight fetch delivers exactly one result to its
// (buffered) channel, and an abandoned channel would strand that chunk's
// buffer — or pin its whole batch reply — outside the pool forever.
func (r *Reader) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	for _, ch := range r.pending {
		go func(ch chan fetchResult) { (<-ch).release() }(ch)
	}
	r.pending = map[int]chan fetchResult{}
	r.cur.release()
	r.cur = fetchResult{}
	return nil
}
