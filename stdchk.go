// Package stdchk is a checkpoint storage system for desktop grid
// computing: a from-scratch reproduction of Al Kiswany, Ripeanu, Vazhkudai
// and Gharaibeh, "stdchk: A Checkpoint Storage System for Desktop Grid
// Computing" (ICDCS 2008).
//
// stdchk aggregates scavenged disk space from unreliable desktop nodes
// (benefactors) into a low-cost storage system optimized for the
// checkpointing workload: write-intensive, sequential, versioned,
// transient data. A central metadata manager tracks benefactors with
// soft-state registration, allocates write stripes, and stores chunk-maps;
// data moves directly between clients and benefactors in content-addressed
// chunks, striped round-robin.
//
// The package offers three write protocols (complete local write,
// incremental write, sliding-window write), optimistic and pessimistic
// write semantics, manager-driven background replication with
// user-defined targets, incremental checkpointing via fixed-size
// compare-by-hash (FsCH) chunk dedup, automatic data-lifetime management
// (none / automated-replace / automated-purge folder policies), garbage
// collection of orphaned chunks, and a POSIX-like file system facade.
//
// # Quick start
//
//	cluster, _ := stdchk.StartCluster(stdchk.ClusterOptions{Benefactors: 4})
//	defer cluster.Close()
//
//	client, _ := cluster.Connect(stdchk.Options{})
//	defer client.Close()
//
//	w, _ := client.Create("myapp.n1.t0")
//	w.Write(checkpointImage)
//	w.Close() // application-visible end of the checkpoint
//	w.Wait()  // stored and committed
//
//	r, _ := client.Open("myapp.n1.t0")
//	image, _ := r.ReadAll()
//
// For daemon deployments, see cmd/stdchk-manager, cmd/stdchk-benefactor
// and the cmd/stdchk client CLI; cmd/stdchk-bench regenerates the paper's
// evaluation.
package stdchk

import (
	"strings"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/fsiface"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/store"
)

// Re-exported domain types. See package core for full documentation.
type (
	// ChunkID is the content-based (SHA-1) name of a chunk.
	ChunkID = core.ChunkID
	// NodeID identifies a benefactor.
	NodeID = core.NodeID
	// VersionID identifies one committed version of a dataset.
	VersionID = core.VersionID
	// ChunkMap describes one committed version: its chunks and replica
	// locations.
	ChunkMap = core.ChunkMap
	// DatasetInfo summarizes a dataset and its version chain.
	DatasetInfo = core.DatasetInfo
	// VersionInfo summarizes one committed version.
	VersionInfo = core.VersionInfo
	// BenefactorInfo summarizes a registered benefactor.
	BenefactorInfo = core.BenefactorInfo
	// Policy is a folder data-lifetime policy.
	Policy = core.Policy
	// PolicyKind selects none / replace / purge behaviour.
	PolicyKind = core.PolicyKind
	// WriteSemantics selects optimistic or pessimistic writes.
	WriteSemantics = core.WriteSemantics
	// Retention is a folder version-retention schedule (keep-last-N,
	// keep-hourly), enforced by the manager's background retention worker.
	Retention = core.Retention
	// Protocol selects the write data path.
	Protocol = client.Protocol
	// WriteMetrics carries a write session's measurements.
	WriteMetrics = client.WriteMetrics
	// ManagerStats aggregates manager-side counters.
	ManagerStats = proto.ManagerStats
	// OpenOptions selects which committed version Open serves: an explicit
	// Version, the newest AsOf an instant, or (default) the latest —
	// optionally restored incrementally against a local Baseline.
	OpenOptions = client.OpenOptions
	// HistoryResp is a dataset's version lineage, oldest first.
	HistoryResp = proto.HistoryResp
	// VersionLineage describes one version in a dataset's history.
	VersionLineage = proto.VersionLineage
	// DiffResp lists the byte ranges that changed between two versions.
	DiffResp = proto.DiffResp
	// ByteRange is one changed [Offset, Offset+Length) span in a diff.
	ByteRange = proto.ByteRange
)

// Policy kinds (paper §IV.D).
const (
	PolicyNone    = core.PolicyNone
	PolicyReplace = core.PolicyReplace
	PolicyPurge   = core.PolicyPurge
)

// Write semantics (paper §IV.A).
const (
	WriteOptimistic  = core.WriteOptimistic
	WritePessimistic = core.WritePessimistic
)

// Write protocols (paper §IV.B).
const (
	SlidingWindow      = client.SlidingWindow
	IncrementalWrite   = client.IncrementalWrite
	CompleteLocalWrite = client.CompleteLocalWrite
)

// Sentinel errors.
var (
	ErrNotFound       = core.ErrNotFound
	ErrNoSpace        = core.ErrNoSpace
	ErrNoBenefactors  = core.ErrNoBenefactors
	ErrIntegrity      = core.ErrIntegrity
	ErrBenefactorDown = core.ErrBenefactorDown
)

// DefaultChunkSize is the striping chunk size (1 MB, as evaluated in the
// paper).
const DefaultChunkSize = core.DefaultChunkSize

// Options configures a client connection.
type Options struct {
	// ManagerAddr is the metadata manager's address — or a
	// comma-separated federation member list, which makes the client
	// route each dataset to its owning member. Filled automatically by
	// Cluster.Connect.
	ManagerAddr string
	// StripeWidth is the number of benefactors writes stripe across
	// (0 = manager default, 4).
	StripeWidth int
	// ChunkSize is the striping chunk size (0 = 1 MB).
	ChunkSize int64
	// Replication is the desired replica count (0 = manager default, 2).
	Replication int
	// Semantics selects optimistic (default) or pessimistic writes.
	Semantics WriteSemantics
	// Protocol selects the write data path (default sliding window).
	Protocol Protocol
	// BufferBytes bounds the sliding-window memory buffer.
	BufferBytes int64
	// TempFileBytes bounds incremental-write temp files.
	TempFileBytes int64
	// Incremental enables FsCH chunk dedup against the store's content
	// index (incremental checkpointing, paper §IV.C).
	Incremental bool
	// PushMapReplicas stores chunk-map copies on stripe benefactors at
	// commit, enabling manager recovery by quorum (paper §IV.A).
	PushMapReplicas bool
	// Writer is an optional identity stamped on every version this client
	// commits, surfaced in version history (checkpoint provenance).
	Writer string
}

// Client is a stdchk client: create/read checkpoint files, manage
// policies, inspect the system.
type Client struct {
	inner *client.Client
}

// Writer is an open write session (io.WriteCloser plus Wait/Metrics).
type Writer = client.Writer

// Reader is an open read session (io.ReadCloser plus ReadAll/Size).
type Reader = client.Reader

// FS is the POSIX-like facade (paper §IV.E).
type FS = fsiface.FS

// File is an open facade handle.
type File = fsiface.File

// Connect opens a client against a running metadata service: one manager,
// or a federation when ManagerAddr lists several members (same syntax as
// the stdchk CLI's -manager flag).
func Connect(o Options) (*Client, error) {
	inner, err := client.New(client.Config{
		ManagerAddr:     o.ManagerAddr,
		StripeWidth:     o.StripeWidth,
		ChunkSize:       o.ChunkSize,
		Replication:     o.Replication,
		Semantics:       o.Semantics,
		Protocol:        o.Protocol,
		BufferBytes:     o.BufferBytes,
		TempFileBytes:   o.TempFileBytes,
		Incremental:     o.Incremental,
		PushMapReplicas: o.PushMapReplicas,
		Writer:          o.Writer,
	})
	if err != nil {
		return nil, err
	}
	return &Client{inner: inner}, nil
}

// Create opens a write session for a new checkpoint image. Names follow
// the A.Ni.Tj convention ("app.node.timestep"); successive timesteps of
// one (app, node) pair form a version chain.
func (c *Client) Create(name string) (*Writer, error) { return c.inner.Create(name) }

// Open opens a committed version for reading: the latest by default, or
// the version the single optional OpenOptions selects (explicit Version,
// newest AsOf an instant, incremental restore against a Baseline).
func (c *Client) Open(name string, opts ...OpenOptions) (*Reader, error) {
	return c.inner.Open(name, opts...)
}

// History reports a dataset's version lineage, oldest first: identity,
// commit time, writer, size, and sharing with each predecessor.
func (c *Client) History(name string) (HistoryResp, error) { return c.inner.History(name) }

// Diff reports the byte ranges of version to that differ from version
// from (to = 0 means latest). Bytes outside the ranges are identical.
func (c *Client) Diff(name string, from, to VersionID) (DiffResp, error) {
	return c.inner.Diff(name, from, to)
}

// PrefetchMaps warms the client's chunk-map cache for several datasets in
// one metadata round trip per federation member touched. Unknown names
// are skipped; returns how many maps were installed.
func (c *Client) PrefetchMaps(names []string) (int, error) { return c.inner.PrefetchMaps(names) }

// Delete removes one version, or all versions when v is 0.
func (c *Client) Delete(name string, v VersionID) error { return c.inner.Delete(name, v) }

// List lists datasets, optionally restricted to a folder (application).
func (c *Client) List(folder string) ([]DatasetInfo, error) { return c.inner.List(folder) }

// Stat summarizes a dataset.
func (c *Client) Stat(name string) (DatasetInfo, error) { return c.inner.Stat(name) }

// SetPolicy attaches a data-lifetime policy to an application folder.
func (c *Client) SetPolicy(folder string, p Policy) error { return c.inner.SetPolicy(folder, p) }

// GetPolicy reads a folder policy.
func (c *Client) GetPolicy(folder string) (Policy, error) { return c.inner.GetPolicy(folder) }

// Benefactors lists registered storage donors.
func (c *Client) Benefactors() ([]BenefactorInfo, error) { return c.inner.Benefactors() }

// Stats snapshots manager counters.
func (c *Client) Stats() (ManagerStats, error) { return c.inner.ManagerStats() }

// Mount returns the POSIX-like facade over this client.
func (c *Client) Mount() (*FS, error) {
	return fsiface.New(fsiface.Config{Client: c.inner})
}

// Close releases the client's connections.
func (c *Client) Close() error { return c.inner.Close() }

// ManagerConfig configures a standalone metadata manager.
type ManagerConfig struct {
	// ListenAddr is the TCP service address (default "127.0.0.1:0").
	ListenAddr string
	// HeartbeatInterval is the benefactor soft-state refresh period.
	HeartbeatInterval time.Duration
	// DefaultReplication is the replication target when clients do not
	// specify one (default 2).
	DefaultReplication int
	// JournalPath persists metadata for crash recovery (optional; the
	// benefactor-quorum recovery of paper §IV.A works without it).
	JournalPath string
	// Recover starts in recovery mode, rebuilding metadata from
	// benefactor-held chunk-map replicas.
	Recover bool
}

// Manager is a running metadata manager.
type Manager = manager.Manager

// StartManager launches a metadata manager.
func StartManager(cfg ManagerConfig) (*Manager, error) {
	return manager.New(manager.Config{
		ListenAddr:         cfg.ListenAddr,
		HeartbeatInterval:  cfg.HeartbeatInterval,
		DefaultReplication: cfg.DefaultReplication,
		JournalPath:        cfg.JournalPath,
		Recover:            cfg.Recover,
		WritePriority:      true,
	})
}

// BenefactorConfig configures a storage donor node.
type BenefactorConfig struct {
	// ListenAddr is the chunk-service address (default "127.0.0.1:0").
	ListenAddr string
	// ManagerAddr is the manager to register with.
	ManagerAddr string
	// Capacity is the contributed space in bytes (0 = unlimited).
	Capacity int64
	// Dir stores chunks on disk; empty keeps them in memory.
	Dir string
	// ID overrides the node identity (defaults to the listen address).
	ID NodeID
}

// Benefactor is a running storage donor.
type Benefactor = benefactor.Benefactor

// StartBenefactor launches a storage donor node.
func StartBenefactor(cfg BenefactorConfig) (*Benefactor, error) {
	bcfg := benefactor.Config{
		ID:          cfg.ID,
		ListenAddr:  cfg.ListenAddr,
		ManagerAddr: cfg.ManagerAddr,
		Capacity:    cfg.Capacity,
	}
	if cfg.Dir != "" {
		st, err := store.OpenDisk(cfg.Dir, cfg.Capacity, nil)
		if err != nil {
			return nil, err
		}
		bcfg.Store = st
	}
	return benefactor.New(bcfg)
}

// ClusterOptions configures an in-process cluster (development, tests,
// examples — the paper's desktop grid in one process).
type ClusterOptions struct {
	// Managers is the number of federated metadata managers (0 or 1 =
	// one standalone manager). With N > 1 the dataset namespace is
	// partitioned across the members and clients route through a
	// federation router transparently.
	Managers int
	// Benefactors is the number of donor nodes (default 4).
	Benefactors int
	// BenefactorCapacity is each node's contribution (0 = unlimited).
	BenefactorCapacity int64
	// Replication is the default replication target.
	Replication int
}

// Cluster is an in-process stdchk deployment.
type Cluster struct {
	inner *grid.Cluster
}

// StartCluster launches a manager and N benefactors in-process.
func StartCluster(opts ClusterOptions) (*Cluster, error) {
	c, err := grid.Start(grid.Options{
		Managers:           opts.Managers,
		Benefactors:        opts.Benefactors,
		BenefactorCapacity: opts.BenefactorCapacity,
		BenefactorProfile:  device.Unshaped(),
		Manager: manager.Config{
			HeartbeatInterval:   200 * time.Millisecond,
			ReplicationInterval: 200 * time.Millisecond,
			DefaultReplication:  opts.Replication,
			WritePriority:       true,
		},
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{inner: c}, nil
}

// ManagerAddr returns the cluster manager's address (federation member 0
// when federated).
func (c *Cluster) ManagerAddr() string { return c.inner.Manager.Addr() }

// ManagerAddrs returns every metadata-plane member address.
func (c *Cluster) ManagerAddrs() []string { return c.inner.ManagerAddrs() }

// Connect opens a client against this cluster's metadata plane, one
// manager or several: callers see one metadata service either way.
func (c *Cluster) Connect(opts Options) (*Client, error) {
	opts.ManagerAddr = strings.Join(c.inner.ManagerAddrs(), ",")
	return Connect(opts)
}

// Stats snapshots the metadata plane's counters (merged across members
// when federated).
func (c *Cluster) Stats() ManagerStats { return c.inner.Stats() }

// StopBenefactor kills one donor node (failure injection in tests and
// examples).
func (c *Cluster) StopBenefactor(i int) error { return c.inner.StopBenefactor(i) }

// AddBenefactor starts one more donor node.
func (c *Cluster) AddBenefactor() error {
	_, err := c.inner.AddBenefactor()
	return err
}

// Close stops the whole cluster.
func (c *Cluster) Close() { c.inner.Close() }
