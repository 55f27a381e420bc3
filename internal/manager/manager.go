// Package manager implements the stdchk metadata manager (paper §IV.A):
// the soft-state benefactor registry, dataset/version catalog with
// copy-on-write chunk sharing, write-session space reservation, atomic
// chunk-map commits (session semantics), manager-driven background
// replication with write priority, garbage-collection reconciliation,
// folder data-lifetime policies, and metadata recovery after manager
// failure (journal replay and benefactor-quorum reconstruction).
package manager

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/federation"
	"stdchk/internal/metrics"
	"stdchk/internal/namespace"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// fpCommitPublish fires after a commit is journaled and published but
// before the client is acknowledged — the redo-log ambiguity window where a
// crash leaves the commit durable yet unconfirmed. Crash tests use it to
// prove replay resurrects (never loses) such commits.
var fpCommitPublish = faultpoint.Register("manager.commit.publish")

// Config parameterizes a Manager.
type Config struct {
	// ListenAddr is the TCP address to serve on ("127.0.0.1:0" for an
	// ephemeral port).
	ListenAddr string
	// Listener, when non-nil, serves on an already-bound listener instead
	// of ListenAddr. Federated deployments bind all member listeners
	// first so every member can be configured with the complete address
	// list; the manager takes ownership and closes it.
	Listener net.Listener
	// FederationMembers, when it lists more than one address, makes this
	// manager member MemberIndex of a static federation: it owns only the
	// dataset keys that federation.OwnerIndex maps to its index and
	// rejects the rest (the client-side router routes by the same
	// function). All members must be configured with the identical list —
	// the derived partition epoch is checked on routed requests.
	FederationMembers []string
	// MemberIndex is this manager's position in FederationMembers.
	MemberIndex int
	// HeartbeatInterval is what benefactors are told to use.
	HeartbeatInterval time.Duration
	// NodeTTL expires benefactors that stop heartbeating. Defaults to 3x
	// the heartbeat interval.
	NodeTTL time.Duration
	// DeadTimeout is the heartbeat silence past which a suspect (expired)
	// benefactor is declared dead and decommissioned: its chunk locations
	// are dropped from the catalog (journaled, so restarts do not
	// resurrect them) and repair re-replicates from the survivors. Zero
	// defaults to 10x NodeTTL; negative disables death entirely (suspects
	// linger forever, the pre-lifecycle behavior).
	DeadTimeout time.Duration
	// DefaultStripeWidth applies when a client requests width 0.
	DefaultStripeWidth int
	// DefaultReplication is the replication target when the client does
	// not specify one.
	DefaultReplication int
	// ReplicationInterval paces the background replication scheduler.
	ReplicationInterval time.Duration
	// ReplicationParallel caps concurrent replica copies per round.
	ReplicationParallel int
	// RepairBytesPerRound caps the bytes of replica copies one scheduler
	// round may schedule, so a mass failure's repair storm cannot saturate
	// the benefactor links foreground writes need. The scheduler consumes
	// jobs critical-band first, so a tight budget always goes to the most
	// exposed chunks. Zero leaves rounds unbudgeted.
	RepairBytesPerRound int64
	// WritePriority throttles replication to one copy per round while
	// write sessions are active (paper: "Creation of new files has
	// priority over replication").
	WritePriority bool
	// SessionTTL expires abandoned write sessions, garbage collecting
	// their space reservations.
	SessionTTL time.Duration
	// PruneInterval paces the folder-policy pruner.
	PruneInterval time.Duration
	// JournalPath, when set, persists commits/deletes/policies to an
	// append-only journal replayed on restart.
	JournalPath string
	// FsyncJournal arms power-loss durability: the journal writer fsyncs
	// once per drained batch (group commit) and a commit is acknowledged
	// only after its batch's fsync. Off, the writer appends in ticket
	// order behind the commit: a clean shutdown drains it, and a process
	// crash can lose a small window of acknowledged-but-unjournaled
	// entries. Folders can demand fsync individually via their policy's
	// Durability knob even when this is off.
	FsyncJournal bool
	// SnapshotInterval, when positive, periodically serializes the catalog
	// to a snapshot beside the journal and truncates the journal to the
	// entries the snapshot does not cover, bounding restart time by live
	// state instead of journal history. Zero disables the background loop;
	// Snapshot() can still be called explicitly.
	SnapshotInterval time.Duration
	// Recover starts the manager in recovery mode: registering
	// benefactors are asked for their chunk-map replicas, and datasets
	// are restored once two-thirds of a map's stripe concur (paper §IV.A).
	Recover bool
	// MaxPendingOps bounds the globally admitted, unfinished mutating
	// metadata ops (alloc/extend/commit). Past the bound the manager
	// sheds: the op is rejected immediately with a typed
	// core.ErrRetryAfter carrying RetryAfterHint instead of queueing.
	// Zero leaves the queue unbounded (depth is still tracked).
	MaxPendingOps int
	// RetryAfterHint is the backoff delay embedded in shed responses.
	// Zero means a small default (see internal admission gate).
	RetryAfterHint time.Duration
	// Logger receives operational messages. Nil discards them.
	Logger *log.Logger
}

func (c Config) withDefaults() Config {
	if c.ListenAddr == "" {
		c.ListenAddr = "127.0.0.1:0"
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = time.Second
	}
	if c.NodeTTL <= 0 {
		c.NodeTTL = 3 * c.HeartbeatInterval
	}
	if c.DeadTimeout == 0 {
		c.DeadTimeout = 10 * c.NodeTTL
	} else if c.DeadTimeout < 0 {
		c.DeadTimeout = 0 // disabled: the registry never declares death
	}
	if c.DefaultStripeWidth <= 0 {
		c.DefaultStripeWidth = 4
	}
	if c.DefaultReplication <= 0 {
		c.DefaultReplication = core.DefaultReplicationLevel
	}
	if c.ReplicationInterval <= 0 {
		c.ReplicationInterval = 500 * time.Millisecond
	}
	if c.ReplicationParallel <= 0 {
		c.ReplicationParallel = 4
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 2 * time.Minute
	}
	if c.PruneInterval <= 0 {
		c.PruneInterval = time.Second
	}
	return c
}

// Manager is the stdchk metadata manager.
type Manager struct {
	cfg      Config
	reg      *registry
	cat      *catalog
	sess     *sessionTable
	pool     *wire.Pool
	srv      *wire.Server
	journal  *journal
	logger   *log.Logger
	policies *policyTable

	recovering atomic.Bool
	recovery   *recoveryState

	// fed is nil on a standalone manager; otherwise the member's place in
	// the federation (partition filter inputs).
	fed *federation.Membership

	// adm gates mutating metadata ops; always constructed (unbounded
	// when MaxPendingOps is zero) so depth accounting is uniform.
	adm *admission
	// ops is the op table the server and Invoke dispatch through: one
	// entry per RPC, built once by registerOps and read-only afterwards.
	ops *wire.OpTable

	// counters is the manager's counter record (Stats().Counters), each
	// counter declared once in declareCounters (the journal's in
	// openJournal); ctr holds the handles its paths count with.
	counters metrics.Counters
	ctr      counterHandles

	stop chan struct{}
	// repairKick nudges the replication scheduler to run immediately
	// (decommission, corruption report, rejoin) instead of waiting out the
	// tick. Buffered: one pending kick covers any number of events.
	repairKick chan struct{}
	wg         sync.WaitGroup

	closeOnce sync.Once
}

// New starts a manager serving on cfg.ListenAddr.
func New(cfg Config) (*Manager, error) {
	return newManager(cfg, defaultStripes)
}

// newManager is New with the stripe count, which only this package's
// tests vary (replay must not depend on it).
func newManager(cfg Config, stripes int) (*Manager, error) {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:        cfg,
		reg:        newRegistry(cfg.NodeTTL, cfg.DeadTimeout),
		cat:        newCatalogStripes(stripes),
		sess:       newSessionTableStripes(cfg.SessionTTL, stripes),
		pool:       wire.NewPool(nil, wire.PeerConns),
		logger:     cfg.Logger,
		policies:   newPolicyTable(),
		adm:        newAdmission(cfg.MaxPendingOps, cfg.RetryAfterHint),
		stop:       make(chan struct{}),
		repairKick: make(chan struct{}, 1),
	}
	m.registerOps()
	m.declareCounters()
	if len(cfg.FederationMembers) > 0 {
		if cfg.MemberIndex < 0 || cfg.MemberIndex >= len(cfg.FederationMembers) {
			return nil, fmt.Errorf("manager: member index %d outside federation of %d", cfg.MemberIndex, len(cfg.FederationMembers))
		}
		ms, err := federation.NewMembership(cfg.FederationMembers)
		if err != nil {
			return nil, fmt.Errorf("manager: %w", err)
		}
		m.fed = ms
	}
	if cfg.JournalPath != "" {
		// Recovery order: newest valid snapshot first (checksum-verified,
		// falling back to the previous one on corruption), then the journal
		// suffix past the snapshot's ticket watermark. The snapshot loads
		// before the journal opens because its watermark floors the ticket
		// counter.
		watermark, err := m.loadSnapshot()
		if err != nil {
			return nil, fmt.Errorf("manager: load snapshot: %w", err)
		}
		j, entries, err := openJournal(cfg.JournalPath, cfg.FsyncJournal, m.logf, watermark, &m.counters)
		if err != nil {
			return nil, fmt.Errorf("manager: %w", err)
		}
		m.journal = j
		if err := m.replayJournal(entries, watermark); err != nil {
			j.close()
			return nil, fmt.Errorf("manager: replay journal: %w", err)
		}
		// Installed only after replay (replayed entries must not be
		// re-journaled). The catalog invokes it inside the dataset
		// stripe's critical section so the journal's global order always
		// respects copy-on-write causality across stripes.
		m.cat.journalHook = m.journalRecord
	}
	if cfg.Recover {
		m.recovering.Store(true)
		m.recovery = newRecoveryState()
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			if m.journal != nil {
				m.journal.close()
			}
			return nil, fmt.Errorf("manager: listen %s: %w", cfg.ListenAddr, err)
		}
	}
	m.srv = wire.NewServerWithConfig(ln, wire.ServerConfig{
		Handler:  m.ops.Serve,
		Overload: m.adm.overloadHook,
	})

	m.wg.Add(3)
	go m.sweepLoop()
	go m.replicationLoop()
	go m.retentionLoop()
	if m.journal != nil && cfg.SnapshotInterval > 0 {
		m.wg.Add(1)
		go m.snapshotLoop()
	}
	return m, nil
}

// Addr returns the manager's service address.
func (m *Manager) Addr() string { return m.srv.Addr() }

// MemberJournalPath derives federation member i's journal file from a
// shared journal-path template. Every caller that maps a template to a
// member's journal (NewFederation, the grid's federated restart) must go
// through here: a second copy of the naming scheme would let a restarted
// member open a fresh journal at the wrong path and silently replay
// nothing.
func MemberJournalPath(path string, i int) string {
	return fmt.Sprintf("%s-member%d", path, i)
}

// NewFederation starts n managers as one federation on pre-bound loopback
// listeners, so every member is constructed with the complete (and
// therefore epoch-stable) member address list. tmpl is the per-member
// config template; ListenAddr/Listener/FederationMembers/MemberIndex are
// filled in per member, and a configured JournalPath fans out to one file
// per member (N processes appending to one journal would interleave
// records and each replay would resurrect the others' partitions). n == 1
// starts one standalone manager. The grid test harness and the fedload
// experiment share this bootstrap.
func NewFederation(n int, tmpl Config) ([]*Manager, []string, error) {
	if n <= 0 {
		n = 1
	}
	listeners := make([]net.Listener, n)
	members := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, nil, fmt.Errorf("manager: bind federation listener: %w", err)
		}
		listeners[i] = ln
		members[i] = ln.Addr().String()
	}
	mgrs := make([]*Manager, 0, n)
	for i, ln := range listeners {
		cfg := tmpl
		cfg.ListenAddr = ""
		cfg.Listener = ln
		if n > 1 {
			cfg.FederationMembers = members
			cfg.MemberIndex = i
			if cfg.JournalPath != "" {
				cfg.JournalPath = MemberJournalPath(cfg.JournalPath, i)
			}
		}
		m, err := New(cfg)
		if err != nil {
			for _, l := range listeners[i:] {
				l.Close()
			}
			for _, started := range mgrs {
				started.Close()
			}
			return nil, nil, fmt.Errorf("manager: start federation member %d: %w", i, err)
		}
		mgrs = append(mgrs, m)
	}
	return mgrs, members, nil
}

// Close stops the manager and its background tasks. It returns the first
// error the journal writer could not recover from (entries acknowledged
// before the sticky error tripped may not have reached the file), so
// operators learn about silent durability loss at shutdown at the latest.
func (m *Manager) Close() error {
	var err error
	m.closeOnce.Do(func() {
		close(m.stop)
		err = m.srv.Close()
		m.wg.Wait()
		m.pool.Close()
		if m.journal != nil {
			if jerr := m.journal.close(); jerr != nil && err == nil {
				err = fmt.Errorf("manager: journal: %w", jerr)
			}
		}
	})
	return err
}

func (m *Manager) logf(format string, args ...interface{}) {
	if m.logger != nil {
		m.logger.Printf("manager: "+format, args...)
	}
}

// owns reports whether this manager's partition includes name's dataset
// key (always true on a standalone manager). Recovery uses it to keep
// benefactor-quorum restores partition-local.
func (m *Manager) owns(name string) bool {
	if m.fed == nil {
		return true
	}
	idx, _ := m.fed.OwnerOf(name)
	return idx == m.cfg.MemberIndex
}

// checkPartition enforces the federation partition filter on a
// dataset-scoped request: the epoch (when the caller supplied one) must
// match this member's, and the dataset key must hash to this member.
// Standalone managers accept everything — the filter is what makes a
// federated member safe against a misconfigured router or a direct-dial
// client, not a general admission check.
func (m *Manager) checkPartition(name string, epoch uint64) error {
	if m.fed == nil {
		// A nonzero epoch comes only from a multi-member router: its
		// caller believes this process is a federation member. Accepting
		// would let a member accidentally restarted without its
		// -federation flags serve every partition's keys undetected.
		if epoch != 0 {
			return fmt.Errorf("manager: request epoch %#x but this manager is not federated: %w",
				epoch, core.ErrEpochMismatch)
		}
		return nil
	}
	if epoch != 0 && epoch != m.fed.Epoch() {
		return fmt.Errorf("manager: request epoch %#x, member epoch %#x: %w",
			epoch, m.fed.Epoch(), core.ErrEpochMismatch)
	}
	if idx, _ := m.fed.OwnerOf(name); idx != m.cfg.MemberIndex {
		return fmt.Errorf("manager: dataset %q owned by federation member %d, this is member %d: %w",
			namespace.DatasetOf(name), idx, m.cfg.MemberIndex, core.ErrNotOwner)
	}
	return nil
}

func (m *Manager) handleRegister(req proto.RegisterReq) (wire.Resp, error) {
	if req.ID == "" || req.Addr == "" {
		return wire.Resp{}, errors.New("manager: register requires id and addr")
	}
	prev := m.reg.register(req, m.sess.reservedOn(req.ID))
	m.logf("registered benefactor %s at %s (capacity %d)", req.ID, req.Addr, req.Capacity)
	recovering := m.recovering.Load()
	if recovering {
		m.wg.Add(1)
		go func(addr string) {
			defer m.wg.Done()
			m.pullRecoveryMaps(addr)
		}(req.Addr)
	}
	resp := proto.RegisterResp{
		HeartbeatInterval: m.cfg.HeartbeatInterval,
		Recovering:        recovering,
	}
	// Rejoin reconciliation: the registration carries the node's chunk
	// inventory. Locations the catalog still wants (committed or
	// mid-commit) are re-adopted — a flap past DeadTimeout heals in this
	// one RPC instead of re-replicating everything the decommission
	// dropped — and the remainder is returned as the node's garbage set.
	// While recovering the catalog is incomplete: adopt what has already
	// been restored, condemn nothing.
	chunks := req.Chunks
	if len(chunks) > proto.MaxRegisterChunks {
		chunks = chunks[:proto.MaxRegisterChunks]
	}
	for _, id := range chunks {
		if m.cat.adoptLocation(id, req.ID) {
			resp.Reconciled++
		} else if !recovering {
			resp.Garbage = append(resp.Garbage, id)
		}
	}
	if resp.Reconciled > 0 {
		m.ctr.repairReconciled.Add(int64(resp.Reconciled))
		m.logf("benefactor %s rejoined: %d locations reconciled, %d garbage", req.ID, resp.Reconciled, len(resp.Garbage))
	}
	if prev == core.NodeDead || resp.Reconciled > 0 {
		// Reconciled locations may satisfy repairs the decommission queued;
		// a fresh round recomputes against the healed chunk-map.
		m.kickRepair()
	}
	return wire.Resp{Meta: resp}, nil
}

func (m *Manager) handleAlloc(req proto.AllocReq) (wire.Resp, error) {
	if req.Name == "" {
		return wire.Resp{}, errors.New("manager: alloc requires a file name")
	}
	if err := m.checkPartition(req.Name, req.PartitionEpoch); err != nil {
		return wire.Resp{}, err
	}
	width := req.StripeWidth
	if width <= 0 {
		width = m.cfg.DefaultStripeWidth
	}
	chunkSize := req.ChunkSize
	if chunkSize <= 0 {
		chunkSize = core.DefaultChunkSize
	}
	repl := req.Replication
	if repl <= 0 {
		repl = m.cfg.DefaultReplication
	}
	perNode := perNodeShare(req.ReserveBytes, width)
	stripe, err := m.reg.allocateStripe(width, perNode)
	if err != nil {
		return wire.Resp{}, err
	}
	s := m.sess.open(req.Name, stripe, chunkSize, req.Variable, repl, perNode, req.Writer)
	return wire.Resp{Meta: proto.AllocResp{WriteID: s.id, Stripe: stripe}}, nil
}

// handleGetMaps serves the batch map prefetch (MGetMaps): the latest
// chunk-map of every owned, existing name in the request. Non-owned and
// unknown names are skipped, not errors — a router fans the identical
// batch to every touched federation member and each answers for its own
// partition; the client falls back to per-name fetches for the rest. An
// epoch mismatch still fails the whole batch (router config drift).
func (m *Manager) handleGetMaps(req proto.GetMapsReq) (wire.Resp, error) {
	var resp proto.GetMapsResp
	for _, name := range req.Names {
		if err := m.checkPartition(name, req.PartitionEpoch); err != nil {
			if errors.Is(err, core.ErrEpochMismatch) {
				return wire.Resp{}, err
			}
			continue
		}
		fileName, cm, err := m.cat.getMap(name, 0, 0)
		if err != nil {
			continue
		}
		resp.Maps = append(resp.Maps, proto.NamedMap{Name: fileName, Map: cm})
	}
	return wire.Resp{Meta: resp}, nil
}

func (m *Manager) handleExtend(req proto.ExtendReq) (wire.Resp, error) {
	s, err := m.sess.get(req.WriteID)
	if err != nil {
		return wire.Resp{}, err
	}
	perNode := perNodeShare(req.Bytes, len(s.stripe))
	ids, err := m.sess.extend(req.WriteID, perNode)
	if err != nil {
		return wire.Resp{}, err
	}
	m.reg.reserve(ids, perNode)
	return wire.Resp{Meta: proto.ExtendResp{Reserved: req.Bytes}}, nil
}

func (m *Manager) handleCommit(req proto.CommitReq) (wire.Resp, error) {
	s, err := m.sess.close(req.WriteID)
	if err != nil {
		return wire.Resp{}, err
	}
	m.reg.release(s.stripeIDs, s.perNode)
	// The catalog journals the commit itself (via the journal hook, inside
	// the dataset stripe's critical section) so journal order matches
	// publication order.
	dsID, verID, newBytes, err := m.cat.commit(s.name, namespace.FolderOf(s.name), s.replication, s.chunkSize, s.variable, req.FileSize, req.Chunks, s.writer)
	if err != nil {
		return wire.Resp{}, err
	}
	if err := fpCommitPublish.Hit(); err != nil {
		return wire.Resp{}, err
	}
	// Apply the folder's replace policy synchronously: a new image makes
	// old ones obsolete at commit time (paper §IV.D "Automated replace").
	m.applyReplacePolicy(s.name)
	return wire.Resp{Meta: proto.CommitResp{Dataset: dsID, Version: verID, NewBytes: newBytes}}, nil
}

func (m *Manager) handleAbort(req proto.AbortReq) (wire.Resp, error) {
	s, err := m.sess.close(req.WriteID)
	if err != nil {
		return wire.Resp{}, err
	}
	m.reg.release(s.stripeIDs, s.perNode)
	return wire.Resp{Meta: proto.HeartbeatResp{OK: true}}, nil
}

func (m *Manager) handleDelete(req proto.DeleteReq) (wire.Resp, error) {
	if err := m.checkPartition(req.Name, req.PartitionEpoch); err != nil {
		return wire.Resp{}, err
	}
	orphans, err := m.cat.deleteVersion(req.Name, req.Version)
	if err != nil {
		return wire.Resp{}, err
	}
	m.logf("deleted %s (version %d): %d chunks orphaned", req.Name, req.Version, len(orphans))
	return wire.Resp{Meta: proto.HeartbeatResp{OK: true}}, nil
}

func (m *Manager) handleGCReport(req proto.GCReportReq) (wire.Resp, error) {
	// While recovering, the catalog is incomplete: every chunk would look
	// unreferenced. Answer conservatively until recovery finishes, or
	// benefactors would garbage-collect live data.
	if m.recovering.Load() {
		return wire.Resp{Meta: proto.GCReportResp{}}, nil
	}
	var deletable []core.ChunkID
	for _, id := range req.IDs {
		if !m.cat.referenced(id) {
			deletable = append(deletable, id)
		}
	}
	// Standalone, the deletable set IS the deleted set, so the counter is
	// exact. Federated, this reply is only one member's vote — the router
	// intersects votes and a chunk another member still references is
	// kept, so counting votes here would inflate ChunksCollected every
	// round for chunks that never die. Federated members therefore do not
	// count; the merged stat undercounts (reads 0) rather than lies.
	if m.fed == nil {
		m.ctr.chunksCollected.Add(int64(len(deletable)))
	}
	return wire.Resp{Meta: proto.GCReportResp{Deletable: deletable}}, nil
}

// counterHandles are the manager's event counters: each is one
// declaration in declareCounters and is counted where the event happens.
type counterHandles struct {
	dedupChunks, dedupHits, replicasCopied                         *atomic.Int64
	repairPending, repairCritical, repairCopiedBytes, repairFailed *atomic.Int64
	repairCorrupt, repairReconciled, repairDecommissions           *atomic.Int64
	chunksCollected, versionsPruned                                *atomic.Int64
	journalReplayed, snapshots, snapshotSeq                        *atomic.Int64
}

// declareCounters declares the manager's counter record: every counter
// it reports, once, with how federation members' readings merge —
// summed for work on a member's own partition, maxed for what every
// member sees (the donor pool) or a bound each member holds.
func (m *Manager) declareCounters() {
	c := &m.counters
	m.ctr = counterHandles{
		// MHasChunks probes: the chunk IDs they carried, and those
		// answered "already stored" — the chunks incremental
		// checkpointing kept off the wire.
		dedupChunks: c.Sum(proto.CtrDedupChunks),
		dedupHits:   c.Sum(proto.CtrDedupHits),
		// Replicas the repair scheduler created, and their bytes.
		replicasCopied:    c.Sum("repair.replicas"),
		repairCopiedBytes: c.Sum(proto.CtrRepairCopiedBytes),
		// Gauges sampled at the last scheduler round: under-replicated
		// chunks, and those down to one live replica (repaired first).
		repairPending:  c.Sum("repair.pending"),
		repairCritical: c.Sum("repair.critical"),
		// Copy jobs that failed against every live source in a round.
		repairFailed: c.Sum(proto.CtrRepairFailed),
		// Replica locations dropped on scrub reports, re-adopted from
		// rejoin inventories, and nodes declared dead.
		repairCorrupt:       c.Sum("repair.corrupt_reported"),
		repairReconciled:    c.Sum(proto.CtrRepairReconciled),
		repairDecommissions: c.Sum(proto.CtrDecommissions),
		// Chunks a standalone manager's GC rounds found unreferenced (a
		// federated member's reply is one vote, so it counts nothing).
		chunksCollected: c.Sum("gc.chunks_collected"),
		versionsPruned:  c.Sum(proto.CtrVersionsPruned),
		// Journal entries replayed at start past the snapshot watermark,
		// snapshots taken, and the newest snapshot's watermark.
		journalReplayed: c.Sum(proto.CtrJournalReplayed),
		snapshots:       c.Sum("snapshot.taken"),
		snapshotSeq:     c.Max(proto.CtrSnapshotSeq),
	}

	// The donor pool, by lifecycle state: every member sees all of it.
	c.MaxFunc("benefactors.total", func() int64 { n, _, _, _ := m.reg.counts(); return int64(n) })
	c.MaxFunc(proto.CtrBenefactorsOnline, func() int64 { _, n, _, _ := m.reg.counts(); return int64(n) })
	c.MaxFunc("benefactors.suspect", func() int64 { _, _, n, _ := m.reg.counts(); return int64(n) })
	c.MaxFunc("benefactors.dead", func() int64 { _, _, _, n := m.reg.counts(); return int64(n) })

	c.SumFunc(proto.CtrDatasets, func() int64 { n, _, _, _, _ := m.cat.counters(); return int64(n) })
	c.SumFunc(proto.CtrVersions, func() int64 { _, n, _, _, _ := m.cat.counters(); return int64(n) })
	c.SumFunc(proto.CtrUniqueChunks, func() int64 { _, _, n, _, _ := m.cat.counters(); return int64(n) })
	c.SumFunc(proto.CtrLogicalBytes, m.cat.logicalBytes.Load)
	c.SumFunc(proto.CtrStoredBytes, m.cat.storedBytes.Load)
	c.SumFunc("sessions.active", func() int64 { return int64(m.sess.active()) })

	// Lock acquisitions on every metadata stripe and the registry's node
	// table, and those that found the lock held: their ratio is the §V.E
	// metadata-plane serialization. The registry's share is also
	// reported alone, with its reservation returns (commit, abort and
	// session expiry).
	c.SumFunc(proto.CtrLockOps, func() int64 { return m.lockTotals().Ops })
	c.SumFunc(proto.CtrLockContended, func() int64 { return m.lockTotals().Contended })
	c.SumFunc("registry.lock_ops", m.reg.tbl.ops.Load)
	c.SumFunc("registry.lock_contended", m.reg.tbl.contended.Load)
	c.SumFunc("registry.releases", m.reg.releases.Load)

	// Admission (alloc/extend/commit): requests admitted, shed at the
	// global gate with a retry-after, and shed earlier at a connection's
	// inflight bound; the queue's depth now and at its peak; the
	// configured bound (0 = unbounded) and retry-after hint.
	c.SumFunc("admission.admitted", m.adm.admitted.Load)
	c.SumFunc(proto.CtrShed, m.adm.shed.Load)
	c.SumFunc(proto.CtrConnShed, m.adm.connShed.Load)
	c.SumFunc("admission.queue_depth", m.adm.cur.Load)
	c.MaxFunc(proto.CtrPeakQueueDepth, m.adm.peak.Load)
	c.Max("admission.max_pending").Store(int64(m.adm.max))
	c.Max("admission.retry_after_us").Store(m.adm.hint.Microseconds())
}

// lockTotals adds up the lock acquisitions of every metadata stripe and
// the registry's node table.
func (m *Manager) lockTotals() proto.StripeStats {
	t := m.reg.tbl.snapshot()
	ds, ck := m.cat.stripeSnapshot()
	for _, stripes := range [][]proto.StripeStats{ds, ck, m.sess.stripeSnapshot()} {
		for _, st := range stripes {
			t.Ops += st.Ops
			t.Contended += st.Contended
		}
	}
	return t
}

// Stats returns a snapshot of the manager's counters and op records:
// what MStats serves, and what in-process callers read.
func (m *Manager) Stats() proto.ManagerStats {
	dsStripes, ckStripes := m.cat.stripeSnapshot()
	s := proto.ManagerStats{
		Counters:       m.counters.Snapshot(),
		Ops:            m.ops.Stats(),
		CatalogStripes: dsStripes,
		ChunkStripes:   ckStripes,
		SessionStripes: m.sess.stripeSnapshot(),
	}
	if m.fed != nil {
		s.Federation = &proto.FederationInfo{
			Members:     m.fed.Members(),
			MemberIndex: m.cfg.MemberIndex,
			Epoch:       m.fed.Epoch(),
		}
	}
	s.SetViews()
	return s
}

// Invoke dispatches one manager RPC in-process, bypassing the TCP framing
// but exercising the exact handler path (the op table's decode and
// record, catalog, journal). req is marshalled exactly as a frame's meta
// would be; resp, when non-nil, receives the handler's response metadata.
// Load harnesses (BenchmarkManagerOps, the managerload experiment) use it
// to measure the metadata plane without the socket stack in front.
func (m *Manager) Invoke(op string, req, resp interface{}) error {
	meta, err := wire.MarshalMeta(req)
	if err != nil {
		return fmt.Errorf("manager: invoke %s: %w", op, err)
	}
	out, err := m.ops.Serve(&wire.Req{Op: op, Meta: meta})
	if err != nil {
		return err
	}
	if resp == nil || out.Meta == nil {
		return nil
	}
	b, err := wire.MarshalMeta(out.Meta)
	if err != nil {
		return fmt.Errorf("manager: invoke %s: response: %w", op, err)
	}
	if err := wire.UnmarshalMeta(b, resp); err != nil {
		return fmt.Errorf("manager: invoke %s: response: %w", op, err)
	}
	return nil
}

// sweepLoop expires dead benefactors and abandoned sessions.
func (m *Manager) sweepLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-ticker.C:
			suspect, dead := m.reg.sweep(now)
			for _, id := range suspect {
				m.logf("benefactor %s suspect (no heartbeat)", id)
			}
			for _, id := range dead {
				m.decommission(id)
			}
			for _, s := range m.sess.expire(now) {
				m.reg.release(s.stripeIDs, s.perNode)
				m.logf("write session %d (%s) expired; reservations released", s.id, s.name)
			}
		}
	}
}

// decommission drops every chunk location a dead benefactor held and
// journals the drop, so a manager restart cannot resurrect locations on a
// node declared dead before the crash. Repair then re-replicates from the
// survivors; if the node eventually rejoins, register's inventory
// reconciliation re-adopts whatever it still holds. The journal record is
// written outside any dataset stripe's critical section, so its order
// against concurrent commits is best-effort — a replay divergence there
// only re-creates locations that the next sweep or rejoin reconciles.
func (m *Manager) decommission(id core.NodeID) {
	// The drop proceeds even if journaling fails: routing readers to a
	// dead node is worse than a replayed journal missing one drop.
	m.journalRecord(journalEntry{Op: "decommission", Name: string(id)})
	dropped := m.cat.dropLocationEverywhere(id)
	m.ctr.repairDecommissions.Add(1)
	m.logf("benefactor %s dead (silent past %v): decommissioned, %d chunk locations dropped", id, m.cfg.DeadTimeout, dropped)
	m.kickRepair()
}

// kickRepair nudges the replication scheduler to run now instead of at its
// next tick. Non-blocking: a pending kick already covers the event.
func (m *Manager) kickRepair() {
	select {
	case m.repairKick <- struct{}{}:
	default:
	}
}

// perNodeShare spreads a byte reservation across a stripe.
func perNodeShare(bytes int64, width int) int64 {
	if bytes <= 0 || width <= 0 {
		return 0
	}
	return (bytes + int64(width) - 1) / int64(width)
}
