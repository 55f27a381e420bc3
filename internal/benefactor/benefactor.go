// Package benefactor implements a stdchk storage donor node (paper §IV.A):
// it publishes its status and free space to the manager with soft-state
// registration, serves client requests to store and retrieve data chunks,
// executes manager-driven replication copies, runs the garbage-collection
// protocol, and keeps chunk-map replicas for manager-failure recovery.
package benefactor

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sort"
	"sync"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/federation"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/wire"
)

// Config parameterizes a benefactor.
type Config struct {
	// ID identifies the node at the manager. Defaults to the listen
	// address.
	ID core.NodeID
	// ListenAddr is the chunk-service address ("127.0.0.1:0" for
	// ephemeral).
	ListenAddr string
	// ManagerAddr is the metadata manager to register with. Empty runs
	// the node unmanaged (unit tests). Ignored when ManagerAddrs is set.
	ManagerAddr string
	// ManagerAddrs lists a federated metadata plane's members. The node
	// registers and heartbeats with every member (each manager allocates
	// stripes from its own registry), and garbage collection intersects
	// the members' answers so a chunk is deleted only when no member
	// references it.
	ManagerAddrs []string
	// Capacity is the contributed space in bytes (0 = unlimited). Used
	// when Store is nil.
	Capacity int64
	// Store overrides the default in-memory chunk store.
	Store store.Store
	// GCInterval paces inventory reports to the manager.
	GCInterval time.Duration
	// GCGrace protects freshly written chunks from collection: only
	// chunks older than this are reported as GC candidates, which keeps
	// in-flight (uncommitted) uploads safe.
	GCGrace time.Duration
	// ScrubInterval paces the background integrity scrub: every tick,
	// up to ScrubBatch stored chunks are re-read and re-hashed against
	// their content addresses, and any that fail are quarantined (deleted
	// locally, reported on the next heartbeat so the manager drops the
	// location and schedules critical-priority repair). Zero disables
	// scrubbing.
	ScrubInterval time.Duration
	// ScrubBatch caps the chunks verified per scrub tick — the rate limit
	// that keeps scrub I/O from competing with the serve path. Defaults
	// to 16.
	ScrubBatch int
	// Shaper wraps accepted connections with device models (the node's
	// NIC/disk).
	Shaper wire.Shaper
	// MaxConnInflight bounds concurrently dispatched session-tagged
	// frames per connection (0 = wire.DefaultConnInflight). Pipelined
	// clients ride this: a window of tagged BPut/BGetBatch frames is
	// served concurrently, while untagged (serial) clients are untouched.
	MaxConnInflight int
	// DialShaper wraps outbound connections (replication pushes, manager
	// calls).
	DialShaper wire.Shaper
	// Logger receives operational messages. Nil discards them.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.GCInterval <= 0 {
		c.GCInterval = 2 * time.Second
	}
	if c.GCGrace <= 0 {
		c.GCGrace = 30 * time.Second
	}
	if c.ScrubBatch <= 0 {
		c.ScrubBatch = 16
	}
	return c
}

// Benefactor is a running donor node.
type Benefactor struct {
	cfg    Config
	id     core.NodeID
	chunks store.Store
	srv    *wire.Server
	pool   *wire.Pool
	// mgrs fronts the metadata plane (one manager or a federation); nil
	// when the node runs unmanaged.
	mgrs   *federation.Router
	logger *log.Logger

	mu     sync.Mutex
	births map[core.ChunkID]time.Time
	maps   map[string]*core.ChunkMap // chunk-map replicas for recovery
	// Scrub state (guarded by mu). scrubCursor resumes the inventory walk
	// across ticks; corrupt accumulates quarantined chunk IDs until a
	// successful heartbeat delivers them to the manager; the counters feed
	// BStats.
	scrubCursor  core.ChunkID
	corrupt      []core.ChunkID
	scrubbed     int64
	corruptFound int64

	stop      chan struct{}
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New starts a benefactor serving on cfg.ListenAddr and, when a manager is
// configured, registers and begins heartbeating.
func New(cfg Config) (*Benefactor, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("benefactor: listen %s: %w", cfg.ListenAddr, err)
	}
	b := &Benefactor{
		cfg:    cfg,
		chunks: cfg.Store,
		pool:   wire.NewPool(cfg.DialShaper, 4),
		logger: cfg.Logger,
		births: make(map[core.ChunkID]time.Time),
		maps:   make(map[string]*core.ChunkMap),
		stop:   make(chan struct{}),
	}
	if b.chunks == nil {
		b.chunks = store.NewMemory(cfg.Capacity, nil)
	}
	b.id = cfg.ID
	if b.id == "" {
		b.id = core.NodeID(ln.Addr().String())
	}
	// Chunks present at startup (disk store reopen) are treated as born
	// now, so the GC grace period protects them until the manager knows
	// about the node again.
	now := time.Now()
	for _, id := range b.chunks.Inventory() {
		b.births[id] = now
	}
	b.srv = wire.NewServerWithConfig(ln, wire.ServerConfig{
		Handler:         b.handle,
		Shaper:          cfg.Shaper,
		MaxConnInflight: cfg.MaxConnInflight,
	})

	if members := cfg.managerMembers(); len(members) > 0 {
		r, err := federation.NewRouter(federation.RouterConfig{
			Members: members,
			Shaper:  cfg.DialShaper,
			Logger:  cfg.Logger,
		})
		if err != nil {
			b.srv.Close()
			b.pool.Close()
			b.chunks.Close()
			return nil, fmt.Errorf("benefactor: %w", err)
		}
		b.mgrs = r
		b.wg.Add(2)
		go b.managerLoop()
		go b.gcLoop()
	}
	if cfg.ScrubInterval > 0 {
		b.wg.Add(1)
		go b.scrubLoop()
	}
	return b, nil
}

// managerMembers resolves the metadata-plane member list: the federation
// list when configured, else the single manager address, else none.
func (c Config) managerMembers() []string {
	if len(c.ManagerAddrs) > 0 {
		return c.ManagerAddrs
	}
	if c.ManagerAddr != "" {
		return []string{c.ManagerAddr}
	}
	return nil
}

// ID returns the node's identity.
func (b *Benefactor) ID() core.NodeID { return b.id }

// Addr returns the chunk-service address.
func (b *Benefactor) Addr() string { return b.srv.Addr() }

// Store exposes the underlying chunk store (tests, tooling).
func (b *Benefactor) Store() store.Store { return b.chunks }

// Close stops serving and background loops.
func (b *Benefactor) Close() error {
	var err error
	b.closeOnce.Do(func() {
		close(b.stop)
		err = b.srv.Close()
		b.wg.Wait()
		b.pool.Close()
		if b.mgrs != nil {
			b.mgrs.Close()
		}
		b.chunks.Close()
	})
	return err
}

func (b *Benefactor) logf(format string, args ...interface{}) {
	if b.logger != nil {
		b.logger.Printf("benefactor %s: "+format, append([]interface{}{b.id}, args...)...)
	}
}

// handle dispatches one RPC.
func (b *Benefactor) handle(req *wire.Req) (wire.Resp, error) {
	switch req.Op {
	case proto.BPut:
		var put proto.PutReq
		if err := wire.UnmarshalMeta(req.Meta, &put); err != nil {
			return wire.Resp{}, err
		}
		if err := b.putChunk(put.ID, req.Body); err != nil {
			return wire.Resp{}, err
		}
		return wire.Resp{}, nil
	case proto.BGet:
		var get proto.GetReq
		if err := wire.UnmarshalMeta(req.Meta, &get); err != nil {
			return wire.Resp{}, err
		}
		data, err := b.fetchChunk(get.ID)
		if err != nil {
			return wire.Resp{}, err
		}
		return wire.Resp{Body: data, Recycle: true}, nil
	case proto.BGetBatch:
		var batch proto.BatchGetReq
		if err := wire.UnmarshalMeta(req.Meta, &batch); err != nil {
			return wire.Resp{}, err
		}
		meta, body := b.fetchBatch(batch.IDs)
		return wire.Resp{Meta: meta, Body: body, Recycle: body != nil}, nil
	case proto.BHas:
		var has proto.HasReq
		if err := wire.UnmarshalMeta(req.Meta, &has); err != nil {
			return wire.Resp{}, err
		}
		present := make([]bool, len(has.IDs))
		for i, id := range has.IDs {
			present[i] = b.chunks.Has(id)
		}
		return wire.Resp{Meta: proto.HasResp{Present: present}}, nil
	case proto.BDel:
		var del proto.DelReq
		if err := wire.UnmarshalMeta(req.Meta, &del); err != nil {
			return wire.Resp{}, err
		}
		for _, id := range del.IDs {
			if err := b.chunks.Delete(id); err != nil {
				return wire.Resp{}, err
			}
			b.mu.Lock()
			delete(b.births, id)
			b.mu.Unlock()
		}
		return wire.Resp{Meta: proto.HeartbeatResp{OK: true}}, nil
	case proto.BReplicate:
		var rep proto.ReplicateReq
		if err := wire.UnmarshalMeta(req.Meta, &rep); err != nil {
			return wire.Resp{}, err
		}
		if err := b.replicateTo(rep.ID, rep.Target); err != nil {
			return wire.Resp{}, err
		}
		return wire.Resp{Meta: proto.HeartbeatResp{OK: true}}, nil
	case proto.BMapPut:
		var mp proto.MapPutReq
		if err := wire.UnmarshalMeta(req.Meta, &mp); err != nil {
			return wire.Resp{}, err
		}
		if mp.Name == "" || mp.Map == nil {
			return wire.Resp{}, errors.New("benefactor: mapput requires name and map")
		}
		b.mu.Lock()
		b.maps[mp.Name+"#"+fmt.Sprint(mp.Map.Version)] = mp.Map.Clone()
		b.mu.Unlock()
		return wire.Resp{Meta: proto.HeartbeatResp{OK: true}}, nil
	case proto.BMapList:
		return wire.Resp{Meta: b.mapList()}, nil
	case proto.BPing:
		return wire.Resp{Meta: proto.HeartbeatResp{OK: true}}, nil
	case proto.BStats:
		b.mu.Lock()
		scrubbed, corrupt := b.scrubbed, b.corruptFound
		b.mu.Unlock()
		return wire.Resp{Meta: proto.StatsResp{
			Used:           b.chunks.Used(),
			Capacity:       b.chunks.Capacity(),
			Chunks:         b.chunks.Len(),
			ScrubbedChunks: scrubbed,
			CorruptChunks:  corrupt,
		}}, nil
	default:
		return wire.Resp{}, fmt.Errorf("benefactor: unknown op %q", req.Op)
	}
}

// putChunk stores one chunk. Its birth is recorded before the store has
// it: a GC round reports every stored chunk without a birth as aged, so
// the other order leaves a window in which an upload still in flight —
// stored, not yet committed, no birth yet — is reported and deleted.
func (b *Benefactor) putChunk(id core.ChunkID, data []byte) error {
	b.mu.Lock()
	_, known := b.births[id]
	if !known {
		b.births[id] = time.Now()
	}
	b.mu.Unlock()
	_, err := b.chunks.Put(id, data)
	if err != nil && !known && !b.chunks.Has(id) {
		b.mu.Lock()
		delete(b.births, id)
		b.mu.Unlock()
	}
	return err
}

// fetchChunk reads one chunk into a pooled buffer sized to the chunk, so
// the serve path allocates nothing in steady state. The returned slice is
// always caller-owned and safe to hand to wire.PutBuf exactly once.
func (b *Benefactor) fetchChunk(id core.ChunkID) ([]byte, error) {
	size, ok := b.chunks.Size(id)
	if !ok {
		size = core.DefaultChunkSize
	}
	buf := wire.GetBuf(int(size))
	data, err := b.chunks.GetInto(id, buf[:0])
	if err != nil {
		wire.PutBuf(buf)
		b.quarantineIfCorrupt(id, err)
		return nil, err
	}
	if len(data) == 0 {
		// Zero-length chunk: hand back the pooled buffer itself (empty)
		// so the caller's single PutBuf recycles it exactly once.
		return buf[:0], nil
	}
	if &data[0] != &buf[:1][0] {
		// The store grew past the pooled buffer (e.g. the chunk was
		// replaced under us); the result is a fresh allocation, so the
		// pooled buffer goes straight back.
		wire.PutBuf(buf)
	}
	return data, nil
}

// quarantineIfCorrupt is the serve path's half of the scrubber: a store
// read that failed its own hash check (core.ErrIntegrity) has found a bad
// replica, and waiting for the scrub cursor to find it again would leave
// it listed at the manager — and offered to readers — until then.
func (b *Benefactor) quarantineIfCorrupt(id core.ChunkID, err error) {
	if errors.Is(err, core.ErrIntegrity) {
		b.quarantine(id)
	}
}

// fetchBatch assembles a BGetBatch response: every present chunk is read
// via GetInto directly into one pooled body buffer (no per-chunk copies),
// concatenated in request order. Chunks that are absent — or that vanish
// or change size between the sizing pass and the read — are reported with
// size -1 so the caller fails over per chunk, never per batch. The request
// comes off the wire, so neither its ID count nor the chunk sizes it sums
// to are trusted: slots past proto.MaxBatchIDs, and every slot from the
// first chunk that would grow the body past the largest pooled buffer,
// are answered -1 the same way. The body is pooled and ownership
// transfers to the response frame (Recycle).
func (b *Benefactor) fetchBatch(ids []core.ChunkID) (proto.BatchGetResp, []byte) {
	sizes := make([]int64, len(ids))
	for i := range sizes {
		sizes[i] = -1
	}
	if len(ids) > proto.MaxBatchIDs {
		ids = ids[:proto.MaxBatchIDs]
	}
	var total int64
	for i, id := range ids {
		sz, ok := b.chunks.Size(id)
		if !ok {
			continue
		}
		if total+sz > wire.MaxPooledBuf {
			break
		}
		sizes[i] = sz
		total += sz
	}
	if total == 0 {
		return proto.BatchGetResp{Sizes: sizes}, nil
	}
	body := wire.GetBuf(int(total))[:0]
	for i, id := range ids {
		if sizes[i] < 0 {
			continue
		}
		off := len(body)
		data, err := b.chunks.GetInto(id, body[off:off])
		if err != nil || int64(len(data)) != sizes[i] {
			// Deleted or rewritten between sizing and read, or corrupt on
			// disk: hand the slot to the caller's replica failover instead
			// of failing the batch.
			b.quarantineIfCorrupt(id, err)
			sizes[i] = -1
			continue
		}
		if len(data) > 0 && &data[0] != &body[off : off+1][0] {
			// The store allocated fresh instead of serving in place (size
			// raced past our budget); skip rather than copy twice.
			sizes[i] = -1
			continue
		}
		body = body[:off+len(data)]
	}
	return proto.BatchGetResp{Sizes: sizes}, body
}

// replicateTo pushes one of this node's chunks to another benefactor
// (the manager-driven shadow-map copy).
func (b *Benefactor) replicateTo(id core.ChunkID, target string) error {
	data, err := b.fetchChunk(id)
	if err != nil {
		return err
	}
	_, err = b.pool.Call(target, proto.BPut, proto.PutReq{ID: id}, data, nil)
	wire.PutBuf(data)
	if err != nil {
		return fmt.Errorf("replicate %s to %s: %w", id.Short(), target, err)
	}
	return nil
}

func (b *Benefactor) mapList() proto.MapListResp {
	b.mu.Lock()
	defer b.mu.Unlock()
	resp := proto.MapListResp{Maps: make([]proto.NamedMap, 0, len(b.maps))}
	for key, m := range b.maps {
		name := key
		if i := lastIndexByte(key, '#'); i >= 0 {
			name = key[:i]
		}
		resp.Maps = append(resp.Maps, proto.NamedMap{Name: name, Map: m.Clone()})
	}
	sort.Slice(resp.Maps, func(i, j int) bool {
		if resp.Maps[i].Name != resp.Maps[j].Name {
			return resp.Maps[i].Name < resp.Maps[j].Name
		}
		return resp.Maps[i].Map.Version < resp.Maps[j].Map.Version
	})
	return resp
}

func lastIndexByte(s string, c byte) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// managerLoop keeps the node's soft state fresh across the metadata
// plane: each round announces to every member through the router, which
// registers with members that do not know the node yet (first contact, a
// restarted member whose heartbeat rejection proves it forgot us, or a
// member that declared this node dead and decommissioned it) and
// heartbeats the rest. A member being merely unreachable does not trigger
// re-registration anywhere; registrations carry the chunk inventory, so
// the member reconciles the node's surviving replicas in that one RPC and
// answers with the chunks it no longer wants. Heartbeats deliver pending
// scrub verdicts; a verdict stays queued until a fully successful round so
// a flaky member cannot lose a corruption report.
func (b *Benefactor) managerLoop() {
	defer b.wg.Done()
	interval := time.Second
	registered := make([]bool, b.mgrs.Membership().Len())
	for {
		hb := b.heartbeatReq()
		resp, err := b.mgrs.Announce(b.registerReq(), hb, registered)
		if err != nil {
			b.logf("announce: %v", err)
		} else if len(hb.Corrupt) > 0 {
			b.clearReported(hb.Corrupt)
		}
		if resp.Reconciled > 0 || len(resp.Garbage) > 0 {
			n := b.dropGarbage(resp.Garbage)
			b.logf("rejoin: %d locations reconciled, %d/%d garbage chunks dropped",
				resp.Reconciled, n, len(resp.Garbage))
		}
		if resp.HeartbeatInterval > 0 {
			interval = resp.HeartbeatInterval
		}
		select {
		case <-b.stop:
			return
		case <-time.After(interval):
		}
	}
}

// clearReported removes delivered scrub verdicts from the pending corrupt
// list, keeping any that were quarantined while the announce was in
// flight.
func (b *Benefactor) clearReported(ids []core.ChunkID) {
	sent := make(map[core.ChunkID]struct{}, len(ids))
	for _, id := range ids {
		sent[id] = struct{}{}
	}
	b.mu.Lock()
	kept := b.corrupt[:0]
	for _, id := range b.corrupt {
		if _, ok := sent[id]; !ok {
			kept = append(kept, id)
		}
	}
	b.corrupt = kept
	b.mu.Unlock()
}

// dropGarbage deletes chunks the manager condemned at re-registration,
// under the same grace filter as the GC protocol: chunks younger than
// GCGrace survive even when condemned — the condemning member may simply
// not have committed them yet (an in-flight upload racing a flap) — and
// the regular GC rounds collect them once aged if the verdict holds.
func (b *Benefactor) dropGarbage(ids []core.ChunkID) int {
	if len(ids) == 0 {
		return 0
	}
	cutoff := time.Now().Add(-b.cfg.GCGrace)
	dropped := 0
	for _, id := range ids {
		b.mu.Lock()
		birth, known := b.births[id]
		b.mu.Unlock()
		if known && !birth.Before(cutoff) {
			continue
		}
		if err := b.chunks.Delete(id); err != nil {
			continue
		}
		b.mu.Lock()
		delete(b.births, id)
		b.mu.Unlock()
		dropped++
	}
	return dropped
}

// free reports the node's advertised free space ("unlimited" contributions
// advertise 1 TB).
func (b *Benefactor) free() int64 {
	if cap := b.chunks.Capacity(); cap > 0 {
		return cap - b.chunks.Used()
	}
	return 1 << 40
}

func (b *Benefactor) registerReq() proto.RegisterReq {
	// The inventory rides along so a manager that decommissioned this node
	// (or restarted) reconciles surviving replicas in the registration
	// itself instead of re-replicating them.
	inv := b.chunks.Inventory()
	if len(inv) > proto.MaxRegisterChunks {
		inv = inv[:proto.MaxRegisterChunks]
	}
	return proto.RegisterReq{
		ID:       b.id,
		Addr:     b.Addr(),
		Capacity: b.chunks.Capacity(),
		Free:     b.free(),
		Chunks:   inv,
	}
}

func (b *Benefactor) heartbeatReq() proto.HeartbeatReq {
	b.mu.Lock()
	var corrupt []core.ChunkID
	if len(b.corrupt) > 0 {
		corrupt = append(corrupt, b.corrupt...)
	}
	b.mu.Unlock()
	return proto.HeartbeatReq{
		ID:      b.id,
		Free:    b.free(),
		Used:    b.chunks.Used(),
		Chunks:  b.chunks.Len(),
		Corrupt: corrupt,
	}
}

// gcLoop periodically reconciles the chunk inventory with the manager and
// deletes what the manager declares orphaned (paper §IV.A "Garbage
// collection").
func (b *Benefactor) gcLoop() {
	defer b.wg.Done()
	ticker := time.NewTicker(b.cfg.GCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-ticker.C:
			if n, err := b.CollectGarbage(); err != nil {
				b.logf("gc: %v", err)
			} else if n > 0 {
				b.logf("gc: collected %d chunks", n)
			}
		}
	}
}

// CollectGarbage runs one GC round: report aged chunks, delete the ones the
// manager no longer references. The report goes out in batches of
// proto.MaxRegisterChunks — what one frame holds — so an inventory of any
// size is reconciled. Returns the number deleted. Exposed for tests and
// tooling.
func (b *Benefactor) CollectGarbage() (int, error) {
	if b.mgrs == nil {
		return 0, nil
	}
	cutoff := time.Now().Add(-b.cfg.GCGrace)
	var aged []core.ChunkID
	b.mu.Lock()
	for _, id := range b.chunks.Inventory() {
		if birth, ok := b.births[id]; !ok || birth.Before(cutoff) {
			aged = append(aged, id)
		}
	}
	b.mu.Unlock()
	deleted := 0
	for len(aged) > 0 {
		batch := aged[:min(len(aged), proto.MaxRegisterChunks)]
		aged = aged[len(batch):]
		resp, err := b.mgrs.GCReport(proto.GCReportReq{ID: b.id, IDs: batch})
		if err != nil {
			return deleted, err
		}
		for _, id := range resp.Deletable {
			if err := b.chunks.Delete(id); err != nil {
				return deleted, err
			}
			b.mu.Lock()
			delete(b.births, id)
			b.mu.Unlock()
			deleted++
		}
	}
	return deleted, nil
}
