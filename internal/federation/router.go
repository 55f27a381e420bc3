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
// one, and a lone manager is a federation of one member. Call sends an op
// where its proto.Route says: dataset-scoped ops to the member owning the
// dataset's partition, folder policy writes to every member, policy reads
// to any. The ops whose replies from several members must be merged
// (register, heartbeat, GC reconciliation, list, stats) have their own
// methods. The members share one connection pool.
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
	// Logger receives operational messages; nil discards.
	Logger *log.Logger
}

// NewRouter builds a router over a static member list.
func NewRouter(cfg RouterConfig) (*Router, error) {
	ms, err := NewMembership(cfg.Members)
	if err != nil {
		return nil, err
	}
	return &Router{ms: ms, pool: wire.NewPool(cfg.Shaper, wire.PeerConns), logger: cfg.Logger}, nil
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
// error itself, delay hint intact. A member that answers in another frame
// version (wire.ErrFrameVersion) runs another protocol version, which no
// retry changes: that error returns at once, unwrapped.
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
		if errors.Is(err, wire.ErrFrameVersion) {
			return err // the member speaks another protocol version: no retry can succeed
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

// Call sends one manager op where proto.RouteOf(op) routes it. An owner op
// goes to the member owning name's dataset, stamped with the partition
// epoch when req embeds proto.Epoch, under callOwner's retry policy. An
// any-member op takes the first member that answers. An every-member op is
// sent to all members, which Call can only do when it has no reply to merge
// (resp nil); the ops with a merged reply have their own methods. req and
// resp are pointers, resp nil when the reply is not wanted; name matters
// only to owner ops.
func (r *Router) Call(op, name string, req, resp interface{}) error {
	switch proto.RouteOf(op) {
	case proto.RouteOwner:
		if e, ok := req.(interface{ SetPartitionEpoch(uint64) }); ok {
			e.SetPartitionEpoch(r.wireEpoch())
		}
		return r.callOwner(name, op, req, resp)
	case proto.RouteAny:
		var firstErr error
		for i := range r.ms.members {
			err := r.call(i, op, req, resp)
			if err == nil {
				return nil
			}
			if firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	case proto.RouteEvery:
		if resp != nil {
			return fmt.Errorf("federation: %s goes to every member and its replies need a merge; Call cannot serve it", op)
		}
		return r.fanOut(func(i int) error { return r.call(i, op, req, nil) })
	}
	return fmt.Errorf("federation: %s has no route", op)
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

// GetMaps batch-fetches committed chunk-maps, grouping req.Names by
// partition owner so each touched member is asked exactly once. The
// call keeps the manager's best-effort contract: names a member does
// not know are silently absent from the merged reply (prefetch is an
// optimization, the per-name GetMap path remains authoritative).
func (r *Router) GetMaps(req proto.GetMapsReq) (proto.GetMapsResp, error) {
	byOwner := make([][]string, r.ms.Len())
	for _, name := range req.Names {
		i, _ := r.ms.OwnerOf(name)
		byOwner[i] = append(byOwner[i], name)
	}
	resps := make([]proto.GetMapsResp, r.ms.Len())
	err := r.fanOut(func(i int) error {
		if len(byOwner[i]) == 0 {
			return nil
		}
		return r.Call(proto.MGetMaps, byOwner[i][0], &proto.GetMapsReq{Names: byOwner[i]}, &resps[i])
	})
	if err != nil {
		return proto.GetMapsResp{}, err
	}
	var merged proto.GetMapsResp
	for _, resp := range resps {
		merged.Maps = append(merged.Maps, resp.Maps...)
	}
	return merged, nil
}

// StatVersion resolves a name (or the newest version as of req.AsOf) to
// its committed version identity on the owner of req.Name: Call with
// proto.MStatVersion, kept as a method for the benchmark module's probes.
func (r *Router) StatVersion(req proto.StatVersionReq) (proto.StatVersionResp, error) {
	var resp proto.StatVersionResp
	err := r.Call(proto.MStatVersion, req.Name, &req, &resp)
	return resp, err
}

// ---- merged fan-outs ----

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
// snapshot (MergeStats). Per-stripe detail stays per member
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

// MergeStats folds per-member manager snapshots into one federation-wide
// snapshot: op records add, each counter merges by the kind its member
// declared (summed or maxed, metrics.Counter.Merge), per-stripe detail is
// dropped — except that one member's snapshot is returned as it is.
// Shared by the Router's remote path and the grid's in-process
// aggregation.
func MergeStats(all []proto.ManagerStats) proto.ManagerStats {
	if len(all) == 1 {
		return all[0]
	}
	agg := proto.ManagerStats{Ops: make(map[string]metrics.OpStats), Counters: make(map[string]metrics.Counter)}
	for _, st := range all {
		for op, s := range st.Ops {
			agg.Ops[op] = agg.Ops[op].Merge(s)
		}
		for name, c := range st.Counters {
			agg.Counters[name] = agg.Counters[name].Merge(c)
		}
	}
	agg.SetViews()
	return agg
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
