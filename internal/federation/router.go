package federation

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"sort"
	"sync"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/metrics"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

// Router is the client-side front of the metadata plane, whatever its
// size: every stdchk client and benefactor reaches the managers through
// one, and a lone manager is a federation of one member. It maps every
// dataset-scoped RPC (alloc/extend/commit/getMap/stat/delete/replication
// status) to the member owning the dataset's partition, and
// fans membership-scoped RPCs (register, heartbeat, GC reconciliation,
// list, stats) out to all members with merged replies. The members share
// one connection pool; CheckHealth probes them all.
//
// A Router is safe for concurrent use. It is the implementation behind
// the client package's ManagerEndpoint seam (client.New builds one from
// Config.ManagerAddr), so the transport-retry and retry-after policy in
// callOwner is the only one a client has.
type Router struct {
	ms     *Membership
	pool   *wire.Pool
	logger *log.Logger
}

// RouterConfig parameterizes a Router.
type RouterConfig struct {
	// Members is the ordered federation member list; index i must be the
	// manager started with MemberIndex i.
	Members []string
	// Shaper wraps every connection the router dials (the caller's NIC
	// model); nil leaves connections unshaped.
	Shaper wire.Shaper
	// PerMemberConns caps pooled connections per member (0 = 8), or — in
	// shared-connection mode — the multiplexed connections per member.
	PerMemberConns int
	// SharedConns selects shared-connection mode: instead of one pooled
	// connection per outstanding call, up to PerMemberConns multiplexed
	// connections per member carry all calls concurrently with
	// session-tagged frames. This is the topology that scales to
	// millions of client sessions without a socket per session.
	SharedConns bool
	// Logger receives operational messages; nil discards.
	Logger *log.Logger
}

// NewRouter builds a router over a static member list.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ms, err := NewMembership(cfg.Members)
	if err != nil {
		return nil, err
	}
	per := cfg.PerMemberConns
	if per <= 0 {
		per = 8
	}
	pool := wire.NewPool(cfg.Shaper, per)
	if cfg.SharedConns {
		pool = wire.NewSharedPool(cfg.Shaper, per)
	}
	return &Router{ms: ms, pool: pool, logger: cfg.Logger}, nil
}

// Membership returns the router's federation configuration.
func (r *Router) Membership() *Membership { return r.ms }

// Close releases the router's pooled connections.
func (r *Router) Close() error {
	r.pool.Close()
	return nil
}

func (r *Router) logf(format string, args ...interface{}) {
	if r.logger != nil {
		r.logger.Printf("router: "+format, args...)
	}
}

// call performs one RPC against member i, naming the member in any error.
func (r *Router) call(i int, op string, req, resp interface{}) error {
	addr := r.ms.members[i]
	if _, err := r.pool.Call(addr, op, req, nil, resp); err != nil {
		return fmt.Errorf("member %d (%s): %w", i, addr, err)
	}
	return nil
}

// A dataset-scoped call is tried up to retryAttempts times against its
// owner when the failure is a transport one (dial refused, reset,
// timeout) — the owner may simply be restarting. The first backoff is
// retryBase; each further attempt doubles it, plus up to 100% jitter.
// maxRetryAfterDelay caps how long the router honors a server's
// retry-after hint per attempt, so a misconfigured hint cannot stall a
// caller indefinitely.
const (
	retryAttempts      = 4
	retryBase          = 25 * time.Millisecond
	maxRetryAfterDelay = 250 * time.Millisecond
)

// callOwner routes one dataset-scoped RPC to the member owning name,
// retrying transport failures with bounded exponential backoff plus jitter:
// a member that cannot be reached may simply be restarting, and a client
// mid-write-storm should degrade to a short stall instead of an error. A
// RemoteError reply stops retrying immediately — the member answered, and
// replaying a non-idempotent op (commit) against a member that already
// applied it would surface confusing secondary errors — with one
// exception: an admission-control shed (core.ErrRetryAfter) is the
// server asking to be called back, so the router sleeps the server's
// delay hint (scaled by attempt, jittered, capped) and retries within
// the same bounded attempt budget. When all attempts fail on transport
// errors the error is marked core.ErrRetryable so callers can
// distinguish "the owner never answered" from an application-level
// rejection; an exhausted retry-after budget returns the typed shed
// error itself, delay hint intact.
func (r *Router) callOwner(name, op string, req, resp interface{}) error {
	i, _ := r.ms.OwnerOf(name)
	var err error
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			var ra core.ErrRetryAfter
			var d time.Duration
			if errors.As(err, &ra) {
				// Server-directed backoff: the hint, escalated per
				// attempt so persistent overload spreads callers out.
				d = ra.Delay * time.Duration(attempt)
				if d < ra.Delay {
					d = ra.Delay
				}
				if d > maxRetryAfterDelay {
					d = maxRetryAfterDelay
				}
				r.logf("member %d shed %s, honoring retry-after %v (attempt %d)", i, op, d, attempt+1)
			} else {
				d = retryBase << (attempt - 1)
				r.logf("retrying %s on member %d after transport failure (attempt %d): %v", op, i, attempt+1, err)
			}
			d += time.Duration(rand.Int63n(int64(d) + 1))
			time.Sleep(d)
		}
		if err = r.call(i, op, req, resp); err == nil {
			return nil
		}
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			if errors.Is(err, core.ErrRetryAfter{}) {
				continue // honored in the backoff branch above
			}
			return err
		}
	}
	if errors.Is(err, core.ErrRetryAfter{}) {
		return err // typed shed, delay hint intact — not a transport fault
	}
	return fmt.Errorf("%w: %w", core.ErrRetryable, err)
}

// wireEpoch is the partition epoch stamped on dataset-scoped requests.
// A single-member "federation" routes trivially and is typically fronting
// a standalone (non-federated) manager, which rejects nonzero epochs —
// so only genuine multi-member routers assert one.
func (r *Router) wireEpoch() uint64 {
	if r.ms.Len() <= 1 {
		return 0
	}
	return r.ms.epoch
}

// fanOut runs fn once per member, concurrently, and returns the
// lowest-indexed member's error (every member is attempted, so one dead
// member can neither keep another from being asked nor stretch the call's
// latency past the slowest member). fn(i) must only touch state
// owned by member i — call sites collect into per-member slots and merge
// after the barrier.
func (r *Router) fanOut(fn func(i int) error) error {
	errs := make([]error, len(r.ms.members))
	var wg sync.WaitGroup
	for i := range r.ms.members {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CheckHealth probes every member with a stats call and returns the first
// failure (nil when the whole federation answered).
func (r *Router) CheckHealth() error {
	return r.fanOut(func(i int) error {
		var st proto.ManagerStats
		return r.call(i, proto.MStats, nil, &st)
	})
}

// ---- dataset-scoped endpoints (routed to the partition owner) ----

// Alloc opens a write session on the owner of req.Name.
func (r *Router) Alloc(req proto.AllocReq) (proto.AllocResp, error) {
	req.PartitionEpoch = r.wireEpoch()
	var resp proto.AllocResp
	err := r.callOwner(req.Name, proto.MAlloc, req, &resp)
	return resp, err
}

// Extend grows a session's reservation on the owner of name (sessions
// are member-local: the WriteID only means something to the member that
// allocated it).
func (r *Router) Extend(name string, req proto.ExtendReq) (proto.ExtendResp, error) {
	var resp proto.ExtendResp
	err := r.callOwner(name, proto.MExtend, req, &resp)
	return resp, err
}

// Commit publishes a session's chunk-map on the owner of name.
func (r *Router) Commit(name string, req proto.CommitReq) (proto.CommitResp, error) {
	var resp proto.CommitResp
	err := r.callOwner(name, proto.MCommit, req, &resp)
	return resp, err
}

// Abort abandons a session on the owner of name.
func (r *Router) Abort(name string, req proto.AbortReq) error {
	return r.callOwner(name, proto.MAbort, req, nil)
}

// HasChunks answers a write session's dedup probe from the owner of name.
// The probe deliberately does NOT fan out: a copy-on-write commit is
// validated against the owner's content index, so only the owner's answer
// may suppress an upload — a chunk known solely to another member would
// commit as an unresolvable reference.
func (r *Router) HasChunks(name string, ids []core.ChunkID) ([]bool, error) {
	var resp proto.HasResp
	if err := r.callOwner(name, proto.MHasChunks, proto.HasReq{IDs: ids}, &resp); err != nil {
		return nil, err
	}
	return resp.Present, nil
}

// GetMap fetches a committed chunk-map from the owner of req.Name.
func (r *Router) GetMap(req proto.GetMapReq) (proto.GetMapResp, error) {
	req.PartitionEpoch = r.wireEpoch()
	var resp proto.GetMapResp
	err := r.callOwner(req.Name, proto.MGetMap, req, &resp)
	return resp, err
}

// GetMaps batch-fetches committed chunk-maps, grouping req.Names by
// partition owner so each touched member is asked exactly once. The
// call keeps the manager's best-effort contract: names a member does
// not know are silently absent from the merged reply (prefetch is an
// optimization, the per-name GetMap path remains authoritative).
func (r *Router) GetMaps(req proto.GetMapsReq) (proto.GetMapsResp, error) {
	req.PartitionEpoch = r.wireEpoch()
	byOwner := make(map[int][]string)
	for _, name := range req.Names {
		i, _ := r.ms.OwnerOf(name)
		byOwner[i] = append(byOwner[i], name)
	}
	var (
		mu     sync.Mutex
		merged proto.GetMapsResp
		wg     sync.WaitGroup
		errs   = make([]error, r.ms.Len())
	)
	for i, names := range byOwner {
		wg.Add(1)
		go func(i int, names []string) {
			defer wg.Done()
			var resp proto.GetMapsResp
			mreq := proto.GetMapsReq{Names: names, PartitionEpoch: req.PartitionEpoch}
			if err := r.callOwner(names[0], proto.MGetMaps, mreq, &resp); err != nil {
				errs[i] = err
				return
			}
			mu.Lock()
			merged.Maps = append(merged.Maps, resp.Maps...)
			mu.Unlock()
		}(i, names)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return proto.GetMapsResp{}, err
		}
	}
	return merged, nil
}

// History reports a dataset's version lineage from the owner of req.Name.
func (r *Router) History(req proto.HistoryReq) (proto.HistoryResp, error) {
	req.PartitionEpoch = r.wireEpoch()
	var resp proto.HistoryResp
	err := r.callOwner(req.Name, proto.MHistory, req, &resp)
	return resp, err
}

// Diff computes the changed byte ranges between two versions on the
// owner of req.Name — both versions of a dataset live on one member, so
// the diff never crosses a partition boundary.
func (r *Router) Diff(req proto.DiffReq) (proto.DiffResp, error) {
	req.PartitionEpoch = r.wireEpoch()
	var resp proto.DiffResp
	err := r.callOwner(req.Name, proto.MDiff, req, &resp)
	return resp, err
}

// StatVersion resolves a name to its committed version identity on the
// owner of req.Name — the client chunk-map cache's "latest" revalidation
// probe. The partition epoch rides along like every dataset-scoped call,
// so a member restarted without its federation identity answers
// ErrEpochMismatch and the client must not trust (or serve) a cached map.
func (r *Router) StatVersion(req proto.StatVersionReq) (proto.StatVersionResp, error) {
	req.PartitionEpoch = r.wireEpoch()
	var resp proto.StatVersionResp
	err := r.callOwner(req.Name, proto.MStatVersion, req, &resp)
	return resp, err
}

// Stat summarizes one dataset from its owner.
func (r *Router) Stat(name string) (core.DatasetInfo, error) {
	var resp proto.StatResp
	err := r.callOwner(name, proto.MStat, proto.StatReq{Name: name, PartitionEpoch: r.wireEpoch()}, &resp)
	return resp.Dataset, err
}

// Delete removes a version (or dataset) on its owner.
func (r *Router) Delete(req proto.DeleteReq) error {
	req.PartitionEpoch = r.wireEpoch()
	return r.callOwner(req.Name, proto.MDelete, req, nil)
}

// ReplStatus reports a dataset's replication level from its owner.
func (r *Router) ReplStatus(name string) (proto.ReplStatusResp, error) {
	var resp proto.ReplStatusResp
	err := r.callOwner(name, proto.MReplStatus, proto.ReplStatusReq{Name: name, PartitionEpoch: r.wireEpoch()}, &resp)
	return resp, err
}

// ---- membership-scoped endpoints (fanned out, replies merged) ----

// List merges dataset summaries from every member. Dataset and version
// IDs are member-local identifiers, so the merged list orders by name.
func (r *Router) List(folder string) ([]core.DatasetInfo, error) {
	resps := make([]proto.ListResp, r.ms.Len())
	err := r.fanOut(func(i int) error {
		return r.call(i, proto.MList, proto.ListReq{Folder: folder}, &resps[i])
	})
	if err != nil {
		return nil, err
	}
	var out []core.DatasetInfo
	for _, resp := range resps {
		out = append(out, resp.Datasets...)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Name < out[b].Name })
	return out, nil
}

// SetPolicy attaches a folder policy on every member: a folder's datasets
// hash across the whole federation, and each member prunes only the
// datasets it owns, so the policy must exist everywhere to be complete.
// The fan-out is not atomic: on error some members may hold the new
// policy and some the old, and nothing reconciles them — the caller must
// retry until it succeeds (a policy anti-entropy sweep is a recorded
// ROADMAP follow-on of static membership).
func (r *Router) SetPolicy(folder string, p core.Policy) error {
	return r.fanOut(func(i int) error {
		return r.call(i, proto.MPolicySet, proto.PolicySetReq{Folder: folder, Policy: p}, nil)
	})
}

// GetPolicy reads a folder policy from the first healthy member
// (SetPolicy keeps all members in agreement).
func (r *Router) GetPolicy(folder string) (core.Policy, error) {
	var firstErr error
	for i := range r.ms.members {
		var resp proto.PolicyGetResp
		if err := r.call(i, proto.MPolicyGet, proto.PolicyGetReq{Folder: folder}, &resp); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		return resp.Policy, nil
	}
	return core.Policy{}, firstErr
}

// PolicyDryRun audits the next retention sweep across the whole
// federation: every member scans its own partition of the namespace, and
// the per-folder victim lists merge (datasets partition across members,
// so the lists are disjoint). Victims within a merged folder stay sorted
// by name then version, matching the single-manager answer.
func (r *Router) PolicyDryRun(req proto.PolicyDryRunReq) (proto.PolicyDryRunResp, error) {
	var mu sync.Mutex
	byFolder := make(map[string]*proto.FolderDryRun)
	err := r.fanOut(func(i int) error {
		var resp proto.PolicyDryRunResp
		if err := r.call(i, proto.MPolicyDryRun, req, &resp); err != nil {
			return err
		}
		mu.Lock()
		defer mu.Unlock()
		for _, f := range resp.Folders {
			if have, ok := byFolder[f.Folder]; ok {
				have.Victims = append(have.Victims, f.Victims...)
			} else {
				folder := f
				byFolder[f.Folder] = &folder
			}
		}
		return nil
	})
	if err != nil {
		return proto.PolicyDryRunResp{}, err
	}
	var out proto.PolicyDryRunResp
	for _, f := range byFolder {
		sort.Slice(f.Victims, func(a, b int) bool {
			if f.Victims[a].Name != f.Victims[b].Name {
				return f.Victims[a].Name < f.Victims[b].Name
			}
			return f.Victims[a].Version < f.Victims[b].Version
		})
		out.Folders = append(out.Folders, *f)
	}
	sort.Slice(out.Folders, func(a, b int) bool {
		return out.Folders[a].Folder < out.Folders[b].Folder
	})
	return out, nil
}

// ManagerStats merges every member's counters into a federation-wide
// snapshot: partitioned quantities (datasets, versions, chunks, bytes,
// transaction counters) sum; benefactor counts — every member sees the
// same donor pool — take the maximum. Per-stripe detail stays per member
// (MemberStats).
func (r *Router) ManagerStats() (proto.ManagerStats, error) {
	all, err := r.MemberStats()
	if err != nil {
		return proto.ManagerStats{}, err
	}
	agg := MergeStats(all)
	if len(all) > 1 { // a lone member's snapshot keeps its own identity
		agg.Federation = &proto.FederationInfo{
			Members: r.ms.Members(), MemberIndex: -1, Epoch: r.ms.epoch,
		}
	}
	return agg, nil
}

// MergeStats folds per-member manager counters into one federation-wide
// snapshot: partitioned quantities sum, benefactor counts (every member
// sees the same donor pool) take the maximum, per-stripe detail is
// dropped — except that one member's snapshot is returned as it is.
// Shared by the Router's remote path and the grid's in-process
// aggregation.
func MergeStats(all []proto.ManagerStats) proto.ManagerStats {
	if len(all) == 1 {
		return all[0]
	}
	var agg proto.ManagerStats
	for _, st := range all {
		if st.Benefactors > agg.Benefactors {
			agg.Benefactors = st.Benefactors
		}
		if st.OnlineBenefactors > agg.OnlineBenefactors {
			agg.OnlineBenefactors = st.OnlineBenefactors
		}
		if st.SuspectBenefactors > agg.SuspectBenefactors {
			agg.SuspectBenefactors = st.SuspectBenefactors
		}
		if st.DeadBenefactors > agg.DeadBenefactors {
			agg.DeadBenefactors = st.DeadBenefactors
		}
		agg.Datasets += st.Datasets
		agg.Versions += st.Versions
		agg.UniqueChunks += st.UniqueChunks
		agg.LogicalBytes += st.LogicalBytes
		agg.StoredBytes += st.StoredBytes
		agg.ActiveSessions += st.ActiveSessions
		agg.Transactions += st.Transactions
		agg.Extends += st.Extends
		agg.DedupBatches += st.DedupBatches
		agg.DedupChunks += st.DedupChunks
		agg.DedupHits += st.DedupHits
		agg.GetMaps += st.GetMaps
		agg.StatVersions += st.StatVersions
		agg.Histories += st.Histories
		agg.Diffs += st.Diffs
		agg.PrefetchBatches += st.PrefetchBatches
		agg.MapCache.Hits += st.MapCache.Hits
		agg.MapCache.Misses += st.MapCache.Misses
		agg.MapCache.Invalidations += st.MapCache.Invalidations
		agg.ReplicasCopied += st.ReplicasCopied
		// Repair gauges and counters are partition-local work, so they sum
		// like the other partitioned quantities.
		agg.Repair.Pending += st.Repair.Pending
		agg.Repair.Critical += st.Repair.Critical
		agg.Repair.CopiedBytes += st.Repair.CopiedBytes
		agg.Repair.Failed += st.Repair.Failed
		agg.Repair.CorruptReported += st.Repair.CorruptReported
		agg.Repair.Reconciled += st.Repair.Reconciled
		agg.Repair.Decommissions += st.Repair.Decommissions
		agg.ChunksCollected += st.ChunksCollected
		agg.VersionsPruned += st.VersionsPruned
		agg.JournalBatches += st.JournalBatches
		agg.JournalBatchLen += st.JournalBatchLen
		agg.JournalFsyncs += st.JournalFsyncs
		agg.JournalErrors += st.JournalErrors
		agg.JournalReplayed += st.JournalReplayed
		agg.Snapshots += st.Snapshots
		if st.SnapshotSeq > agg.SnapshotSeq {
			agg.SnapshotSeq = st.SnapshotSeq // watermarks are member-local; report the newest
		}
		agg.StripeOps += st.StripeOps
		agg.StripeContention += st.StripeContention
		agg.Registry.Ops += st.Registry.Ops
		agg.Registry.Contended += st.Registry.Contended
		agg.Registry.Allocs += st.Registry.Allocs
		agg.Registry.Reserves += st.Registry.Reserves
		agg.Registry.Releases += st.Registry.Releases
		agg.Registry.Heartbeats += st.Registry.Heartbeats
		// Admission: throughput counters sum; bounds and high-water marks
		// are per-member properties, so the merged view takes the max
		// (the federation "respected its bounds" iff every member did).
		agg.Admission.Admitted += st.Admission.Admitted
		agg.Admission.Shed += st.Admission.Shed
		agg.Admission.ConnShed += st.Admission.ConnShed
		agg.Admission.QueueDepth += st.Admission.QueueDepth
		if st.Admission.PeakQueueDepth > agg.Admission.PeakQueueDepth {
			agg.Admission.PeakQueueDepth = st.Admission.PeakQueueDepth
		}
		if st.Admission.MaxPending > agg.Admission.MaxPending {
			agg.Admission.MaxPending = st.Admission.MaxPending
		}
		if st.Admission.RetryAfterMicros > agg.Admission.RetryAfterMicros {
			agg.Admission.RetryAfterMicros = st.Admission.RetryAfterMicros
		}
		agg.AllocLatency = mergeLatency(agg.AllocLatency, st.AllocLatency)
		agg.CommitLatency = mergeLatency(agg.CommitLatency, st.CommitLatency)
	}
	return agg
}

// mergeLatency combines two wire-form latency histograms element-wise.
func mergeLatency(dst, src proto.LatencyStats) proto.LatencyStats {
	dst.Count += src.Count
	dst.SumMicros += src.SumMicros
	dst.Buckets = metrics.MergeBuckets(dst.Buckets, src.Buckets)
	return dst
}

// MemberStats snapshots every member's counters, indexed by member.
func (r *Router) MemberStats() ([]proto.ManagerStats, error) {
	out := make([]proto.ManagerStats, r.ms.Len())
	err := r.fanOut(func(i int) error {
		return r.call(i, proto.MStats, nil, &out[i])
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Benefactors merges the donor listings; every member sees the same pool,
// so entries deduplicate by node ID (first member's view wins). Because
// the views are redundant, an unreachable member only degrades the
// listing, never fails it: readers resolving node IDs to addresses must
// keep working while a member is down. Only the whole federation being
// unreachable is an error.
func (r *Router) Benefactors() ([]core.BenefactorInfo, error) {
	resps := make([]proto.BenefactorsResp, r.ms.Len())
	answered := make([]bool, r.ms.Len())
	err := r.fanOut(func(i int) error {
		if e := r.call(i, proto.MBenefactors, nil, &resps[i]); e != nil {
			return e
		}
		answered[i] = true
		return nil
	})
	if err != nil {
		any := false
		for _, ok := range answered {
			any = any || ok
		}
		if !any {
			return nil, err
		}
	}
	seen := make(map[core.NodeID]struct{})
	var out []core.BenefactorInfo
	for _, resp := range resps {
		for _, b := range resp.Benefactors {
			if _, dup := seen[b.ID]; dup {
				continue
			}
			seen[b.ID] = struct{}{}
			out = append(out, b)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out, nil
}

// Register announces a benefactor to every member: each manager allocates
// stripes from its own registry, so a donor that skipped a member would be
// invisible to that member's partitions. The merged reply takes the
// shortest heartbeat interval (refresh fast enough for the most demanding
// member) and ORs the recovery flags.
func (r *Router) Register(req proto.RegisterReq) (proto.RegisterResp, error) {
	resps := make([]proto.RegisterResp, r.ms.Len())
	err := r.fanOut(func(i int) error {
		return r.call(i, proto.MRegister, req, &resps[i])
	})
	if err != nil {
		return proto.RegisterResp{}, err
	}
	return mergeRegisterResps(resps, nil), nil
}

// mergeRegisterResps folds per-member registration replies: the shortest
// heartbeat interval any member asked for (refresh fast enough for the
// most demanding member), the OR of the recovery flags, and the sum of
// the reconciled-location counts. Shared by Register and Announce so the
// benefactor's two soft-state paths can never diverge.
//
// The garbage sets follow the GC protocol's conservatism: a chunk is
// garbage only when EVERY member condemned it, and only in a round where
// every member actually registered (registeredNow nil means all did; a
// partial Announce round defers the verdict to the periodic GC protocol).
// A member voting garbage for a chunk another member's partition still
// references must never get the chunk deleted.
func mergeRegisterResps(resps []proto.RegisterResp, registeredNow []bool) proto.RegisterResp {
	var merged proto.RegisterResp
	allRegistered := true
	for i, resp := range resps {
		if merged.HeartbeatInterval == 0 || (resp.HeartbeatInterval > 0 && resp.HeartbeatInterval < merged.HeartbeatInterval) {
			merged.HeartbeatInterval = resp.HeartbeatInterval
		}
		merged.Recovering = merged.Recovering || resp.Recovering
		merged.Reconciled += resp.Reconciled
		if registeredNow != nil && !registeredNow[i] {
			allRegistered = false
		}
	}
	if allRegistered {
		votes := make(map[core.ChunkID]int)
		for _, resp := range resps {
			for _, id := range resp.Garbage {
				votes[id]++
			}
		}
		for id, n := range votes {
			if n == len(resps) {
				merged.Garbage = append(merged.Garbage, id)
			}
		}
		sort.Slice(merged.Garbage, func(a, b int) bool {
			return bytes.Compare(merged.Garbage[a][:], merged.Garbage[b][:]) < 0
		})
	}
	return merged
}

// Announce performs one soft-state round for a benefactor across the
// federation: members the node has not registered with yet — and members
// that reject the heartbeat as coming from an unknown node (they
// restarted and lost their soft state) — get an MRegister; the rest get
// an MHeartbeat. registered[i] tracks member i's state across rounds and
// is updated in place (len must equal the member count).
//
// Crucially, an *unreachable* member is merely skipped for the round
// (retried next round): it must not flip the node into a
// global re-register. Only a member that explicitly forgot the node — a
// restart, or a decommission after the member declared the node dead —
// is re-registered, and only that member; the registration carries the
// node's chunk inventory, which that member reconciles against its
// catalog (and its reservation counter against the node's live write
// sessions). The merged reply carries the shortest heartbeat interval
// any member asked for, ORs the recovery flags, sums the reconciled
// counts, and intersects the garbage sets (only when every member
// registered this round; see mergeRegisterResps); the error is the first
// member's failure, after every member was attempted.
func (r *Router) Announce(reg proto.RegisterReq, hb proto.HeartbeatReq, registered []bool) (proto.RegisterResp, error) {
	if len(registered) != r.ms.Len() {
		return proto.RegisterResp{}, fmt.Errorf("federation: announce with %d member flags, membership has %d", len(registered), r.ms.Len())
	}
	resps := make([]proto.RegisterResp, r.ms.Len())
	registeredNow := make([]bool, r.ms.Len())
	err := r.fanOut(func(i int) error {
		if registered[i] {
			var hresp proto.HeartbeatResp
			err := r.call(i, proto.MHeartbeat, hb, &hresp)
			if err == nil {
				resps[i] = proto.RegisterResp{Recovering: hresp.Recovering}
				return nil
			}
			if !errors.Is(err, core.ErrNotFound) {
				return err // unreachable or transient: keep state, retry next round
			}
			registered[i] = false // member restarted or decommissioned the node
		}
		var rresp proto.RegisterResp
		if err := r.call(i, proto.MRegister, reg, &rresp); err != nil {
			return err
		}
		registered[i] = true
		registeredNow[i] = true
		resps[i] = rresp
		return nil
	})
	return mergeRegisterResps(resps, registeredNow), err
}

// GCReport reconciles a benefactor's chunk inventory with every member
// and intersects the replies: a chunk is deletable only when NO member
// references it. Any member failing makes the round answer "keep
// everything" — garbage collection must be conservative when the
// federation's view is incomplete.
func (r *Router) GCReport(req proto.GCReportReq) (proto.GCReportResp, error) {
	resps := make([]proto.GCReportResp, r.ms.Len())
	err := r.fanOut(func(i int) error {
		return r.call(i, proto.MGCReport, req, &resps[i])
	})
	if err != nil {
		r.logf("gc report incomplete, keeping all %d candidates: %v", len(req.IDs), err)
		return proto.GCReportResp{}, err
	}
	votes := make(map[core.ChunkID]int, len(req.IDs))
	for _, resp := range resps {
		for _, id := range resp.Deletable {
			votes[id]++
		}
	}
	var deletable []core.ChunkID
	n := r.ms.Len()
	for _, id := range req.IDs {
		if votes[id] == n {
			deletable = append(deletable, id)
		}
	}
	return proto.GCReportResp{Deletable: deletable}, nil
}
