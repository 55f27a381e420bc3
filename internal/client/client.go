// Package client implements the stdchk client proxy (paper §IV): striped
// writes to a stripe of benefactors with eager space reservation, the
// three write-optimized protocols (complete local write, incremental
// write, sliding-window write), optimistic/pessimistic write semantics,
// incremental checkpointing via fixed-size compare-by-hash dedup, session
// semantics (atomic chunk-map commit at close), and parallel reads with
// replica failover.
package client

import (
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/chunker"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/federation"
	"stdchk/internal/namespace"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// Protocol selects the write data path (paper §IV.B).
type Protocol int

const (
	// SlidingWindow pushes data from the write memory buffer directly to
	// stdchk storage, eliminating local disk entirely.
	SlidingWindow Protocol = iota + 1
	// IncrementalWrite stages data in bounded local temporary files and
	// pushes each as it fills, overlapping creation and propagation.
	IncrementalWrite
	// CompleteLocalWrite dumps the whole file locally first and pushes it
	// to stdchk after close.
	CompleteLocalWrite
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case SlidingWindow:
		return "sliding-window"
	case IncrementalWrite:
		return "incremental"
	case CompleteLocalWrite:
		return "complete-local"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// ChunkingMode selects how the write path fragments the checkpoint stream
// into chunks (paper §IV.C).
type ChunkingMode int

const (
	// ChunkFixed cuts equal ChunkSize pieces at fixed offsets (FsCH when
	// combined with Incremental). The fastest mode, but any byte
	// insertion/deletion shifts all subsequent chunk contents and defeats
	// cross-version dedup.
	ChunkFixed ChunkingMode = iota
	// ChunkCbCH anchors chunk boundaries to the content itself with a
	// rolling hash, so shifted-but-identical regions across checkpoint
	// versions still hash to the same chunks — the paper's Table 3 result,
	// applied live on the wire path.
	ChunkCbCH
)

// String implements fmt.Stringer.
func (m ChunkingMode) String() string {
	switch m {
	case ChunkFixed:
		return "fixed"
	case ChunkCbCH:
		return "cbch"
	default:
		return fmt.Sprintf("ChunkingMode(%d)", int(m))
	}
}

// Config parameterizes a Client.
type Config struct {
	// ManagerAddr is the metadata manager address, or a comma-separated
	// federation member list (federation.SplitMembers syntax). New builds
	// the client's federation.Router over it: one member routes trivially,
	// several route each dataset to its partition owner. Ignored when
	// Endpoint is set.
	ManagerAddr string
	// Endpoint replaces the Router New would build — a Router the caller
	// configured itself (shared connections), or a test fake. The Client
	// takes ownership and closes it.
	Endpoint ManagerEndpoint
	// StripeWidth is the number of benefactors to stripe writes across
	// (0 = manager default).
	StripeWidth int
	// ChunkSize is the striping chunk size (0 = manager default, 1 MB).
	// In CbCH mode it is ignored in favor of CbCH.Max.
	ChunkSize int64
	// Chunking selects fixed-size striping (default) or content-based
	// variable-size chunking on the write path.
	Chunking ChunkingMode
	// CbCH bounds the content-defined spans when Chunking == ChunkCbCH;
	// zero fields take chunker.StreamParams defaults. Both writers of a
	// version chain must use the same parameters for dedup to land.
	CbCH chunker.StreamParams
	// Replication is the user-defined replication target (0 = manager
	// default).
	Replication int
	// Semantics selects optimistic (default) or pessimistic writes.
	Semantics core.WriteSemantics
	// Protocol selects the write data path. Default SlidingWindow.
	Protocol Protocol
	// BufferBytes is the write window (paper §IV.B), the one bound on
	// bytes in flight: bytes accepted from the application and not yet
	// acknowledged by a benefactor (0 = 64 MB). It is also the only thing
	// Write waits for: an image that fits is taken in as fast as the
	// application's thread copies it, however slowly it drains, and
	// WriteMetrics.BufferWait is zero. With ChunkCbCH it also bounds the
	// memory the staged image pins: each copied byte is admitted, plus
	// one max span per staging segment for the carry of a span that
	// crosses into it.
	// Every chunk it admits is sent without waiting for an earlier one's
	// ack, whatever the chunk size; BufferBytes = ChunkSize is
	// stop-and-wait, one chunk in the whole pipeline.
	BufferBytes int64
	// TempFileBytes bounds incremental-write temporary files.
	TempFileBytes int64
	// Incremental enables FsCH chunk dedup against the manager's content
	// index (paper §IV.C): chunks whose hash the system already stores
	// are not uploaded again.
	Incremental bool
	// ReserveQuantum is the eager space-reservation granularity. The
	// paper's workload averages four manager transactions per 100 MB
	// write; the default (32 MB) reproduces that order.
	ReserveQuantum int64
	// PushMapReplicas stores chunk-map copies on the stripe benefactors
	// at commit time, enabling manager recovery by benefactor quorum
	// (paper §IV.A).
	PushMapReplicas bool
	// LocalDisk paces the complete-local protocol's staging I/O: writes
	// at the disk's sustained write rate, and the post-close push pays
	// the disk read back (nil = unpaced). Incremental-write temp files
	// are bounded and short-lived, so they are modelled as served from
	// the OS write cache (memory-paced) instead.
	LocalDisk *device.Disk
	// Mem paces in-memory copies (nil = unpaced).
	Mem *device.Limiter
	// Shaper wraps every connection the client dials (its NIC model).
	Shaper wire.Shaper
	// ReadAheadBytes is the restore prefetch window (paper §IV.E), the
	// one bound on bytes requested and not yet handed to the application
	// (0 = 4 MB). Bytes, not chunks, keep prefetch memory stable when chunk
	// sizes are heterogeneous (CbCH maps mix spans from tens of KB to the
	// max bound) and keep the same bytes in flight whatever the chunk
	// size: 4 MB is 4 requests at 1 MB chunks and 64 chunks' worth at
	// 64 KB. The reader refills the window once it drains to half, and
	// always keeps at least the chunk the application is waiting on in
	// flight, so ReadAheadBytes at or below the smallest chunk is
	// stop-and-wait: one chunk request outstanding.
	ReadAheadBytes int64
	// Writer is an optional identity stamped on every version this client
	// commits, surfaced in the dataset's version history (provenance: which
	// job/rank wrote each checkpoint). Empty leaves lineage anonymous.
	Writer string
	// Logger receives operational messages; nil discards.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.Protocol == 0 {
		c.Protocol = SlidingWindow
	}
	if c.Semantics == 0 {
		c.Semantics = core.WriteOptimistic
	}
	if c.BufferBytes <= 0 {
		c.BufferBytes = 64 << 20
	}
	if c.TempFileBytes <= 0 {
		c.TempFileBytes = 16 << 20
	}
	if c.ReserveQuantum <= 0 {
		c.ReserveQuantum = 32 << 20
	}
	if c.ReadAheadBytes <= 0 {
		c.ReadAheadBytes = 4 << 20
	}
	if c.Chunking == ChunkCbCH {
		c.CbCH = c.CbCH.WithDefaults()
	}
	return c
}

// dataPoolConnsPerAddr sizes Client.dataPool (see the field for why two).
const dataPoolConnsPerAddr = 2

// Client is a stdchk client proxy.
type Client struct {
	cfg Config
	// dataPool is the shared (multiplexed) pool carrying every chunk
	// transfer to and from benefactors — windowed puts, batched fetches,
	// single-chunk fetches and per-chunk failover tag their frames and
	// share its sockets, so neither a Create nor an Open dials anything
	// once the pool is warm. Owned here for the client's lifetime: two
	// connections per benefactor (one keeps the pipe full for bulk bodies,
	// the second lets a small request frame interleave instead of queueing
	// behind a 1 MB chunk mid-flight), dialed on first use, each with a
	// reply-demux goroutine that lives until Close.
	dataPool *wire.Pool
	// mgr is the metadata service seam: the federation.Router New built
	// over Config.ManagerAddr, or Config.Endpoint. It owns its own
	// connections to the managers.
	mgr ManagerEndpoint

	// maps caches committed chunk-maps by (dataset, version) — the
	// restart fast path. See mapCache.
	maps *mapCache

	// chunkPool and segPool recycle the write path's chunk buffers and
	// staging segments. A buffer goes back when the last chunk holding its
	// bytes is acknowledged, deduplicated or dropped, so the steady-state
	// pipeline allocates nothing per chunk.
	chunkPool, segPool sync.Pool

	// onChunkGet / onChunkPut observe chunk-buffer traffic, onSegment a
	// segment taken (true) or returned (false), and onBatchBody a batch
	// reply body taken or returned to the wire pool; nil outside tests.
	onChunkGet  func(*pooledBuf)
	onChunkPut  func(*pooledBuf)
	onSegment   func(seg *pooledBuf, taken bool)
	onBatchBody func(body []byte, taken bool)

	benefMu    sync.Mutex
	benefAddrs map[core.NodeID]string // node id -> service address cache
}

// segmentSize is the size of a staging segment.
const segmentSize = 1 << 20

// pooledBuf is a write-path buffer: a chunk buffer, filled by append, or a
// staging segment of segmentSize bytes, written in place. Every chunk
// whose bytes it holds keeps a reference; the last unref returns it to its
// pool.
type pooledBuf struct {
	b    []byte
	seg  bool
	refs atomic.Int32
}

// getChunkBuf returns an empty chunk buffer with at least size capacity,
// holding one reference.
func (c *Client) getChunkBuf(size int64) *pooledBuf {
	pb, _ := c.chunkPool.Get().(*pooledBuf)
	if pb == nil || int64(cap(pb.b)) < size {
		pb = &pooledBuf{b: make([]byte, 0, size)}
	}
	pb.refs.Store(1)
	if c.onChunkGet != nil {
		c.onChunkGet(pb)
	}
	return pb
}

// getSegment returns a staging segment holding one reference.
func (c *Client) getSegment() *pooledBuf {
	pb, _ := c.segPool.Get().(*pooledBuf)
	if pb == nil {
		pb = &pooledBuf{b: make([]byte, segmentSize), seg: true}
	}
	pb.refs.Store(1)
	if c.onSegment != nil {
		c.onSegment(pb, true)
	}
	return pb
}

// unref drops one reference to pb; the last returns it to its pool. A
// reference is dropped exactly once, and never before the bytes it pins
// have been hashed and sent.
func (c *Client) unref(pb *pooledBuf) {
	switch n := pb.refs.Add(-1); {
	case n < 0:
		panic("client: pooled buffer released more often than referenced")
	case n > 0:
		return
	}
	if pb.seg {
		if c.onSegment != nil {
			c.onSegment(pb, false)
		}
		c.segPool.Put(pb)
		return
	}
	if c.onChunkPut != nil {
		c.onChunkPut(pb)
	}
	pb.b = pb.b[:0]
	c.chunkPool.Put(pb)
}

// New returns a client for the given configuration.
func New(cfg Config) (*Client, error) {
	if cfg.ManagerAddr == "" && cfg.Endpoint == nil {
		return nil, errors.New("client: ManagerAddr or Endpoint is required")
	}
	cfg = cfg.withDefaults()
	mgr := cfg.Endpoint
	if mgr == nil {
		r, err := federation.NewRouter(federation.RouterConfig{
			Members: federation.SplitMembers(cfg.ManagerAddr),
			Shaper:  cfg.Shaper,
			Logger:  cfg.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("client: %w", err)
		}
		mgr = r
	}
	return &Client{
		cfg:        cfg,
		dataPool:   wire.NewSharedPool(cfg.Shaper, dataPoolConnsPerAddr),
		mgr:        mgr,
		maps:       newMapCache(mapCacheEntries),
		benefAddrs: make(map[core.NodeID]string),
	}, nil
}

// Close releases the metadata endpoint and pooled connections.
func (c *Client) Close() error {
	err := c.mgr.Close()
	c.dataPool.Close()
	return err
}

func (c *Client) logf(format string, args ...interface{}) {
	if c.cfg.Logger != nil {
		c.cfg.Logger.Printf("client: "+format, args...)
	}
}

// Create opens a write session for a new checkpoint image. The returned
// Writer implements the configured protocol; Close marks the
// application-visible end of the write (the OAB endpoint) and Wait blocks
// until the image is safely stored and committed (the ASB endpoint).
func (c *Client) Create(name string) (*Writer, error) {
	return newWriter(c, name)
}

// OpenOptions selects which committed version Open serves and how. The
// zero value means "the latest version, fetched in full" — exactly what
// Open with no options does. At most one of Version, AsOf, and Latest may
// select a version.
type OpenOptions struct {
	// Version opens a specific committed version (0 = unset).
	Version core.VersionID
	// Latest explicitly requests the newest committed version — the
	// default when no selector is set; it exists so call sites can spell
	// the intent out and so option structs built programmatically can
	// assert "no explicit version leaked in here".
	Latest bool
	// AsOf opens the newest version committed at or before this instant
	// (time-travel read). The manager resolves the instant under the
	// dataset lock, answering one lightweight MStatVersion probe.
	AsOf time.Time
	// Baseline enables incremental restore: the version the caller
	// already holds locally. Chunks the opened version shares with the
	// baseline are served from BaselineData (hash-verified) instead of
	// the network, so a restore after a small delta fetches only the
	// delta. Requires BaselineData.
	Baseline core.VersionID
	// BaselineData is the full content of the Baseline version as the
	// caller holds it locally. Length must equal the baseline version's
	// file size; bytes that fail per-chunk hash verification fall back to
	// a network fetch, so a corrupt local baseline costs correctness
	// nothing.
	BaselineData []byte
}

// validate rejects contradictory selector combinations.
func (o OpenOptions) validate() error {
	selectors := 0
	if o.Version != 0 {
		selectors++
	}
	if o.Latest {
		selectors++
	}
	if !o.AsOf.IsZero() {
		selectors++
	}
	if selectors > 1 {
		return errors.New("client: OpenOptions: Version, Latest, and AsOf are mutually exclusive")
	}
	if o.Baseline != 0 && o.BaselineData == nil {
		return errors.New("client: OpenOptions: Baseline requires BaselineData")
	}
	if o.Baseline == 0 && o.BaselineData != nil {
		return errors.New("client: OpenOptions: BaselineData requires Baseline")
	}
	return nil
}

// Open opens a committed version for reading. With no options it serves
// the latest version — the historical behavior. One OpenOptions value
// may select an explicit Version, the newest version AsOf an instant, or
// (the default) the latest; adding Baseline/BaselineData turns the open
// into an incremental restore that fetches only chunks the opened
// version does not share with the caller's local baseline copy.
//
// The chunk-map cache makes re-opens cheap: an explicit version that hits
// needs no manager RPC at all (committed versions are immutable), and
// every latest/timestep open is one MGetMap carrying the version the
// cache holds for the name (Have): the owner answers with no map when the
// name still resolves to it, and with the full map otherwise. Any error
// (not-found, federation partition epoch mismatch, member unreachable)
// propagates instead of falling back to the cache: a cached map must
// never mask the metadata plane refusing the request.
func (c *Client) Open(name string, opts ...OpenOptions) (*Reader, error) {
	var opt OpenOptions
	switch len(opts) {
	case 0:
	case 1:
		opt = opts[0]
	default:
		return nil, errors.New("client: Open takes at most one OpenOptions")
	}
	if err := opt.validate(); err != nil {
		return nil, err
	}
	ver := opt.Version
	if !opt.AsOf.IsZero() {
		v, err := c.resolveAsOf(name, opt.AsOf)
		if err != nil {
			return nil, err
		}
		ver = v
	}
	fileName, cm, err := c.openMap(name, ver)
	if err != nil {
		return nil, err
	}
	r := newReader(c, fileName, cm)
	if opt.Baseline != 0 {
		_, baseMap, err := c.openMap(name, opt.Baseline)
		if err != nil {
			return nil, fmt.Errorf("client: open %s: baseline version %d: %w", name, opt.Baseline, err)
		}
		base, err := newBaseline(baseMap, opt.BaselineData)
		if err != nil {
			return nil, fmt.Errorf("client: open %s: %w", name, err)
		}
		r.base = base
	}
	return r, nil
}

// resolveAsOf maps an instant to the newest version committed at or
// before it: the owner resolves it under the dataset stripe, from one
// MStatVersion probe carrying the instant. An instant older than every
// commit is core.ErrNotFound.
func (c *Client) resolveAsOf(name string, asOf time.Time) (core.VersionID, error) {
	var sv proto.StatVersionResp
	if err := c.mgr.Call(proto.MStatVersion, name, &proto.StatVersionReq{Name: name, AsOf: asOf}, &sv); err != nil {
		return 0, fmt.Errorf("client: open %s as of %s: %w", name, asOf.Format(time.RFC3339), err)
	}
	return sv.Version, nil
}

// openMap resolves name (+ optional explicit version) to a committed
// chunk-map, serving from the client cache when it can.
func (c *Client) openMap(name string, ver core.VersionID) (string, *core.ChunkMap, error) {
	dsKey := namespace.DatasetOf(name)
	req := proto.GetMapReq{Name: name, Version: ver}
	if ver == 0 {
		req.Have = c.maps.have(dsKey, name)
	} else if fileName, cm := c.maps.get(dsKey, ver); cm != nil {
		return fileName, cm, nil
	}
	resp, err := c.fetchMap(dsKey, req)
	if err != nil || resp.Map != nil {
		return resp.Name, resp.Map, err
	}
	if fileName, cm := c.maps.get(dsKey, resp.Version); cm != nil {
		return fileName, cm, nil
	}
	// Evicted since have picked it: fetch that exact version, so a commit
	// racing this open cannot slide a different one under the cache key.
	resp, err = c.fetchMap(dsKey, proto.GetMapReq{Name: name, Version: resp.Version})
	return resp.Name, resp.Map, err
}

// fetchMap sends one MGetMap and caches the map the reply carries. A
// reply to a Have it no longer matches counts as a cache miss.
func (c *Client) fetchMap(dsKey string, req proto.GetMapReq) (proto.GetMapResp, error) {
	var resp proto.GetMapResp
	if err := c.mgr.Call(proto.MGetMap, req.Name, &req, &resp); err != nil {
		return resp, fmt.Errorf("client: open %s: %w", req.Name, err)
	}
	if req.Have != 0 && resp.Map != nil {
		c.maps.misses.Add(1)
	}
	c.maps.put(dsKey, resp.Name, resp.Map)
	return resp, nil
}

// History reports the dataset's version lineage, oldest first: identity,
// commit time, writer, size, and how much each version shares with its
// predecessor.
func (c *Client) History(name string) (proto.HistoryResp, error) {
	var resp proto.HistoryResp
	if err := c.mgr.Call(proto.MHistory, name, &proto.HistoryReq{Name: name}, &resp); err != nil {
		return proto.HistoryResp{}, fmt.Errorf("client: history %s: %w", name, err)
	}
	return resp, nil
}

// Diff reports the byte ranges of version to that differ from version
// from (0 = latest for to). Bytes outside the returned ranges are
// guaranteed identical in both versions.
func (c *Client) Diff(name string, from, to core.VersionID) (proto.DiffResp, error) {
	var resp proto.DiffResp
	if err := c.mgr.Call(proto.MDiff, name, &proto.DiffReq{Name: name, From: from, To: to}, &resp); err != nil {
		return proto.DiffResp{}, fmt.Errorf("client: diff %s: %w", name, err)
	}
	return resp, nil
}

// PrefetchMaps warms the client chunk-map cache for a set of names in
// one metadata round trip per federation member touched (cross-member
// map prefetch). Best-effort: names the metadata plane does not know are
// skipped, not errors. Returns how many maps were installed.
func (c *Client) PrefetchMaps(names []string) (int, error) {
	if len(names) == 0 {
		return 0, nil
	}
	resp, err := c.mgr.GetMaps(proto.GetMapsReq{Names: names})
	if err != nil {
		return 0, fmt.Errorf("client: prefetch maps: %w", err)
	}
	for _, nm := range resp.Maps {
		c.maps.put(namespace.DatasetOf(nm.Name), nm.Name, nm.Map)
	}
	return len(resp.Maps), nil
}

// MapCacheStats snapshots the client chunk-map cache counters.
func (c *Client) MapCacheStats() proto.MapCacheStats { return c.maps.snapshot() }

// Delete removes one version, or the whole dataset when ver is 0. The
// dataset's cached chunk-maps are dropped — a deleted version's chunks
// may be garbage collected, so serving it from cache would read garbage.
func (c *Client) Delete(name string, ver core.VersionID) error {
	if err := c.mgr.Call(proto.MDelete, name, &proto.DeleteReq{Name: name, Version: ver}, nil); err != nil {
		return fmt.Errorf("client: delete %s: %w", name, err)
	}
	c.InvalidateMaps(name)
	return nil
}

// InvalidateMaps drops every cached chunk-map of name's dataset. Local
// deletes call it automatically; callers who learn out-of-band that the
// server pruned versions (retention policies fire on the manager, not
// here) use it to stop serving condemned maps.
func (c *Client) InvalidateMaps(name string) {
	c.maps.invalidateDataset(namespace.DatasetOf(name))
}

// List lists datasets, optionally restricted to a folder.
func (c *Client) List(folder string) ([]core.DatasetInfo, error) {
	datasets, err := c.mgr.List(folder)
	if err != nil {
		return nil, fmt.Errorf("client: list: %w", err)
	}
	return datasets, nil
}

// Stat summarizes one dataset.
func (c *Client) Stat(name string) (core.DatasetInfo, error) {
	var resp proto.StatResp
	if err := c.mgr.Call(proto.MStat, name, &proto.StatReq{Name: name}, &resp); err != nil {
		return core.DatasetInfo{}, fmt.Errorf("client: stat %s: %w", name, err)
	}
	return resp.Dataset, nil
}

// SetPolicy attaches a data-lifetime policy to a folder.
func (c *Client) SetPolicy(folder string, p core.Policy) error {
	if err := p.Validate(); err != nil {
		return fmt.Errorf("client: set policy: %w", err)
	}
	if err := c.mgr.Call(proto.MPolicySet, "", &proto.PolicySetReq{Folder: folder, Policy: p}, nil); err != nil {
		return fmt.Errorf("client: set policy on %q: %w", folder, err)
	}
	return nil
}

// GetPolicy reads a folder's policy.
func (c *Client) GetPolicy(folder string) (core.Policy, error) {
	var resp proto.PolicyGetResp
	if err := c.mgr.Call(proto.MPolicyGet, "", &proto.PolicyGetReq{Folder: folder}, &resp); err != nil {
		return core.Policy{}, fmt.Errorf("client: get policy of %q: %w", folder, err)
	}
	return resp.Policy, nil
}

// PolicyDryRun audits retention without mutating anything: for each
// enforced folder (or just the given one, when non-empty) it reports the
// versions the next sweep would prune under the policy in force now.
func (c *Client) PolicyDryRun(folder string) (proto.PolicyDryRunResp, error) {
	resp, err := c.mgr.PolicyDryRun(proto.PolicyDryRunReq{Folder: folder})
	if err != nil {
		return proto.PolicyDryRunResp{}, fmt.Errorf("client: policy dry-run: %w", err)
	}
	return resp, nil
}

// ManagerStats snapshots metadata-service counters (merged across members
// when the endpoint is federated).
func (c *Client) ManagerStats() (proto.ManagerStats, error) {
	resp, err := c.mgr.ManagerStats()
	if err != nil {
		return proto.ManagerStats{}, fmt.Errorf("client: manager stats: %w", err)
	}
	return resp, nil
}

// Benefactors lists registered benefactors.
func (c *Client) Benefactors() ([]core.BenefactorInfo, error) {
	benefs, err := c.mgr.Benefactors()
	if err != nil {
		return nil, fmt.Errorf("client: benefactors: %w", err)
	}
	return benefs, nil
}
