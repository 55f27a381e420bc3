// Package grid assembles an in-process stdchk deployment: one metadata
// manager plus N benefactors, each a real TCP server on loopback with its
// own device models (disk, NIC) and an optional shared fabric limiter
// modelling the site switch. It is the reproduction's stand-in for the
// paper's 28-node LAN testbed: real concurrency and real sockets, with
// calibrated capacities.
package grid

import (
	"fmt"
	"net"
	"strings"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// Managers is the number of federated metadata managers (0 or 1 =
	// one standalone manager). With N > 1 the dataset namespace is
	// partitioned across the members; benefactors register with all of
	// them, and a client's router sends each dataset to its owner.
	Managers int
	// Benefactors is the number of donor nodes to start.
	Benefactors int
	// BenefactorCapacity is each node's contributed bytes (0 = unlimited).
	BenefactorCapacity int64
	// BenefactorProfile calibrates each donor's disk and NIC
	// (device.Unshaped() for tests, device.PaperNode() for benches).
	BenefactorProfile device.Profile
	// FabricBps caps total cross-node traffic, modelling the shared
	// switch (0 = uncapped). This is the §V.F bottleneck.
	FabricBps float64
	// Manager overrides manager defaults; ListenAddr and shapers are
	// filled in by Start.
	Manager manager.Config
	// GCInterval / GCGrace configure benefactor garbage collection.
	GCInterval time.Duration
	GCGrace    time.Duration
	// ScrubInterval enables benefactor integrity scrubbing (0 = off).
	ScrubInterval time.Duration
	// ScrubBatch caps chunks verified per scrub tick (0 = default).
	ScrubBatch int
	// DiskBacked stores chunks in per-node temp directories instead of
	// memory.
	DiskBacked bool
	// DiskDir is the root for disk-backed stores.
	DiskDir string
}

// Cluster is a running in-process deployment.
type Cluster struct {
	// Manager is the standalone manager — or federation member 0, kept
	// for the single-manager API surface most tests use.
	Manager *manager.Manager
	// Managers lists every federation member (length 1 when standalone).
	Managers    []*manager.Manager
	Benefactors []*benefactor.Benefactor
	Fabric      *device.Limiter

	opts  Options
	nodes []*device.Node
	specs []benefSpec
}

// benefSpec pins a benefactor slot's durable identity: the node ID and
// disk directory survive a stop/restart cycle, so a restarted donor
// rejoins as itself (same registry entry, same on-disk chunks) instead of
// as a stranger — what a real machine does after a reboot.
type benefSpec struct {
	id   core.NodeID
	dir  string // disk store directory ("" = memory-backed)
	node *device.Node
}

// ManagerAddrs lists the metadata-plane member addresses in member order.
func (c *Cluster) ManagerAddrs() []string {
	out := make([]string, len(c.Managers))
	for i, m := range c.Managers {
		out[i] = m.Addr()
	}
	return out
}

// NewRouter builds a federation router over the cluster's metadata plane
// for callers that drive the metadata RPCs themselves (clients build their
// own). The caller owns it.
func (c *Cluster) NewRouter(shaper wire.Shaper) (*federation.Router, error) {
	return federation.NewRouter(federation.RouterConfig{
		Members: c.ManagerAddrs(),
		Shaper:  shaper,
	})
}

// Start launches the manager and benefactors and waits until every
// benefactor has registered.
func Start(opts Options) (*Cluster, error) {
	if opts.Benefactors <= 0 {
		opts.Benefactors = 4
	}
	if opts.GCInterval <= 0 {
		opts.GCInterval = 2 * time.Second
	}
	if opts.GCGrace <= 0 {
		opts.GCGrace = 30 * time.Second
	}
	c := &Cluster{opts: opts}
	if opts.FabricBps > 0 {
		c.Fabric = device.NewLimiter(opts.FabricBps)
	}

	if opts.Managers <= 0 {
		opts.Managers = 1
	}
	mcfg := opts.Manager
	if mcfg.HeartbeatInterval <= 0 {
		mcfg.HeartbeatInterval = 200 * time.Millisecond
	}
	mgrs, _, err := manager.NewFederation(opts.Managers, mcfg)
	if err != nil {
		return nil, fmt.Errorf("grid: start managers: %w", err)
	}
	c.Managers = mgrs
	c.Manager = c.Managers[0]

	for i := 0; i < opts.Benefactors; i++ {
		if _, err := c.AddBenefactor(); err != nil {
			c.Close()
			return nil, err
		}
	}
	if err := c.AwaitOnline(opts.Benefactors, 10*time.Second); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// AddBenefactor starts one more donor node (it registers asynchronously;
// use AwaitOnline to wait). The node gets a stable identity ("benef-N")
// so a later RestartBenefactor rejoins as the same registry entry.
func (c *Cluster) AddBenefactor() (*benefactor.Benefactor, error) {
	node := device.NewNode(c.opts.BenefactorProfile)
	c.nodes = append(c.nodes, node)
	spec := benefSpec{
		id:   core.NodeID(fmt.Sprintf("benef-%d", len(c.specs))),
		node: node,
	}
	if c.opts.DiskBacked {
		dir := c.opts.DiskDir
		if dir == "" {
			dir = "."
		}
		spec.dir = fmt.Sprintf("%s/%s", dir, spec.id)
	}
	b, err := c.startBenefactor(spec)
	if err != nil {
		return nil, err
	}
	c.specs = append(c.specs, spec)
	c.Benefactors = append(c.Benefactors, b)
	return b, nil
}

// startBenefactor launches a donor for one spec (initial start or
// restart): the disk store reopens the spec's directory, memory-backed
// slots come back empty.
func (c *Cluster) startBenefactor(spec benefSpec) (*benefactor.Benefactor, error) {
	var st store.Store
	if spec.dir != "" {
		ds, err := store.OpenDisk(spec.dir, c.opts.BenefactorCapacity, spec.node.Disk)
		if err != nil {
			return nil, fmt.Errorf("grid: open disk store: %w", err)
		}
		st = ds
	} else {
		st = store.NewMemory(c.opts.BenefactorCapacity, spec.node.Disk)
	}
	b, err := benefactor.New(benefactor.Config{
		ID:            spec.id,
		ListenAddr:    "127.0.0.1:0",
		ManagerAddrs:  c.ManagerAddrs(),
		Store:         st,
		GCInterval:    c.opts.GCInterval,
		GCGrace:       c.opts.GCGrace,
		ScrubInterval: c.opts.ScrubInterval,
		ScrubBatch:    c.opts.ScrubBatch,
		Shaper:        ShaperFor(spec.node, c.Fabric),
		DialShaper:    ShaperFor(spec.node, c.Fabric),
	})
	if err != nil {
		return nil, fmt.Errorf("grid: start benefactor: %w", err)
	}
	return b, nil
}

// StopBenefactor kills one donor node (failure injection).
func (c *Cluster) StopBenefactor(i int) error {
	if i < 0 || i >= len(c.Benefactors) || c.Benefactors[i] == nil {
		return fmt.Errorf("grid: no benefactor %d", i)
	}
	err := c.Benefactors[i].Close()
	c.Benefactors[i] = nil
	return err
}

// RestartBenefactor revives a stopped donor slot under its original
// identity (churn injection). Disk-backed slots come back with their
// chunks intact — the rejoin-reconciliation case — while memory-backed
// slots come back empty, modelling a reimaged machine. A still-running
// slot is stopped first. The new process listens on a fresh port; the
// registration it sends updates the manager's address record.
func (c *Cluster) RestartBenefactor(i int) (*benefactor.Benefactor, error) {
	if i < 0 || i >= len(c.specs) {
		return nil, fmt.Errorf("grid: no benefactor %d", i)
	}
	if c.Benefactors[i] != nil {
		if err := c.Benefactors[i].Close(); err != nil {
			return nil, fmt.Errorf("grid: stop benefactor %d: %w", i, err)
		}
		c.Benefactors[i] = nil
	}
	b, err := c.startBenefactor(c.specs[i])
	if err != nil {
		return nil, err
	}
	c.Benefactors[i] = b
	return b, nil
}

// AwaitOnline blocks until every manager reports at least n online
// benefactors (federated clusters require the whole membership to see the
// donor pool).
func (c *Cluster) AwaitOnline(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		min := -1
		for _, m := range c.Managers {
			stats := m.Stats()
			if min < 0 || stats.OnlineBenefactors < min {
				min = stats.OnlineBenefactors
			}
		}
		if min >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("grid: %d/%d benefactors online after %v", min, n, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// AwaitOffline blocks until the manager notices at most n online
// benefactors (heartbeat expiry after failure injection).
func (c *Cluster) AwaitOffline(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		max := 0
		for _, m := range c.Managers {
			if stats := m.Stats(); stats.OnlineBenefactors > max {
				max = stats.OnlineBenefactors
			}
		}
		if max <= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("grid: still %d benefactors online after %v", max, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// RestartManager simulates a manager failure: the manager process dies and
// a replacement starts on the same address. With recover=true the
// replacement reconstructs its metadata from benefactor-held chunk-map
// replicas (paper §IV.A); with a journal-configured cfg it replays the
// journal instead.
func (c *Cluster) RestartManager(cfg manager.Config, recover bool) error {
	addr := c.Manager.Addr()
	if err := c.Manager.Close(); err != nil {
		return fmt.Errorf("grid: stop manager: %w", err)
	}
	cfg.ListenAddr = addr
	cfg.Recover = recover
	if len(c.Managers) > 1 {
		// The replacement must keep member 0's partition identity, or it
		// would come back standalone with the partition filter disabled
		// and accept every member's keys. The address list is unchanged
		// (the replacement binds the same address), so the epoch holds.
		cfg.FederationMembers = c.ManagerAddrs()
		cfg.MemberIndex = 0
		if cfg.JournalPath != "" {
			cfg.JournalPath = manager.MemberJournalPath(cfg.JournalPath, 0)
		}
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 200 * time.Millisecond
	}
	var mgr *manager.Manager
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		mgr, err = manager.New(cfg)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("grid: restart manager: %w", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	c.Manager = mgr
	c.Managers[0] = mgr
	return nil
}

// NewClient builds a client against this cluster. The profile models the
// client machine (its NIC shapes all its connections); pass
// device.Unshaped() for tests.
func (c *Cluster) NewClient(cfg client.Config, profile device.Profile) (*client.Client, *device.Node, error) {
	node := device.NewNode(profile)
	cfg.ManagerAddr = strings.Join(c.ManagerAddrs(), ",")
	cfg.Shaper = ShaperFor(node, c.Fabric)
	if cfg.LocalDisk == nil {
		cfg.LocalDisk = node.Disk
	}
	if cfg.Mem == nil {
		cfg.Mem = node.Mem
	}
	cl, err := client.New(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("grid: new client: %w", err)
	}
	return cl, node, nil
}

// ShaperFor builds a wire.Shaper from a node's NIC and the shared fabric.
func ShaperFor(node *device.Node, fabric *device.Limiter) wire.Shaper {
	if node == nil {
		return nil
	}
	return func(conn net.Conn) net.Conn {
		return device.Shape(conn, node.NIC, fabric)
	}
}

// Close tears the cluster down: benefactors first, then the manager.
func (c *Cluster) Close() {
	for _, b := range c.Benefactors {
		if b != nil {
			b.Close()
		}
	}
	for _, m := range c.Managers {
		m.Close()
	}
}

// Stats merges every member's counters into one metadata-plane snapshot.
// Standalone clusters get the manager's full snapshot (per-stripe detail
// included); the merged federated view drops per-stripe slices, which
// stay available per member via Managers[i].Stats().
func (c *Cluster) Stats() proto.ManagerStats {
	all := make([]proto.ManagerStats, len(c.Managers))
	for i, m := range c.Managers {
		all[i] = m.Stats()
	}
	return federation.MergeStats(all)
}

// CollectAll runs one synchronous GC round on every benefactor (bench
// harness hygiene between repetitions).
func (c *Cluster) CollectAll() {
	for _, b := range c.Benefactors {
		if b != nil {
			b.CollectGarbage() // errors ignored: best-effort cleanup
		}
	}
}

// NodeIDs lists the running benefactors' identities.
func (c *Cluster) NodeIDs() []core.NodeID {
	var ids []core.NodeID
	for _, b := range c.Benefactors {
		if b != nil {
			ids = append(ids, b.ID())
		}
	}
	return ids
}
