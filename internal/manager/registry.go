package manager

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// registry is the soft-state benefactor directory (paper §IV.A): nodes
// publish their status and free space via registration and periodic
// heartbeats; missing heartbeats walk a node down the lifecycle state
// machine online → suspect (past ttl) → dead (past deadAfter, at which
// point the manager decommissions it).
//
// Once the catalog was striped (PR 3), the registry's single mutex was
// the next lock every alloc serialized on. The hot paths now avoid write
// locks entirely: the node table takes its (instrumented) RWMutex in read
// mode for everything except membership changes (register), round-robin
// stripe selection advances an atomic cursor, and per-node soft state
// lives behind a per-node leaf mutex so heartbeats, allocations and
// releases on different nodes never contend. Admission (free minus
// reserved) is checked per node under its leaf lock; two allocations
// racing onto different nodes proceed in parallel, and reservations stay
// exact because each node's reserved counter only changes under its own
// lock.
type registry struct {
	ttl time.Duration
	// deadAfter is the heartbeat silence past which a suspect node is
	// declared dead (0 = never: suspects linger, the pre-lifecycle
	// behavior).
	deadAfter time.Duration

	// tbl guards the nodes map and ring slice (membership), read-mostly.
	tbl    stripedMu
	nodes  map[core.NodeID]*benefactorState
	ring   []core.NodeID // registration order, for round-robin allocation
	cursor atomic.Uint64 // next ring start for stripe allocation

	// releases counts reservation returns, including session expiry,
	// which is no RPC.
	releases atomic.Int64
}

type benefactorState struct {
	mu       sync.Mutex // leaf lock: guards info and reserved
	info     core.BenefactorInfo
	reserved int64 // bytes promised to open write sessions
}

func newRegistry(ttl, deadAfter time.Duration) *registry {
	return &registry{
		ttl:       ttl,
		deadAfter: deadAfter,
		nodes:     make(map[core.NodeID]*benefactorState),
	}
}

// register adds or refreshes a node and returns the node's previous
// lifecycle state ("" for a first registration). Re-registration (a
// restarted or flapped benefactor) keeps its identity; its reservation
// counter is set to `reserved`, the caller's sum over the live write
// sessions still striped onto the node — NOT cleared to zero, which would
// let the manager over-promise space those sessions were already granted.
// This is the only path that takes the table lock in write mode. A new
// node's state is fully populated before it is published into the table,
// so a concurrent reader can never observe a zero-valued registration.
func (r *registry) register(req proto.RegisterReq, reserved int64) core.NodeState {
	info := core.BenefactorInfo{
		ID:       req.ID,
		Addr:     req.Addr,
		Capacity: req.Capacity,
		Free:     req.Free,
		Online:   true,
		State:    core.NodeOnline,
		LastSeen: time.Now(),
	}
	r.tbl.lock()
	st, ok := r.nodes[req.ID]
	if !ok {
		r.nodes[req.ID] = &benefactorState{info: info, reserved: reserved}
		r.ring = append(r.ring, req.ID)
		r.tbl.unlock()
		return ""
	}
	r.tbl.unlock()
	st.mu.Lock()
	prev := st.info.State
	st.info = info
	st.reserved = reserved
	st.mu.Unlock()
	return prev
}

// lookup finds a node under the table read lock.
func (r *registry) lookup(id core.NodeID) (*benefactorState, bool) {
	r.tbl.rlock()
	st, ok := r.nodes[id]
	r.tbl.runlock()
	return st, ok
}

// heartbeat refreshes a node's soft state. Unknown nodes are rejected so a
// restarted manager forces re-registration (and with it, recovery). Dead
// nodes are rejected the same way: their chunk locations were dropped at
// decommission, so they must rejoin through register, whose inventory
// reconciliation re-adopts whatever they still hold. A suspect node's
// heartbeat restores it to online.
func (r *registry) heartbeat(req proto.HeartbeatReq) error {
	st, ok := r.lookup(req.ID)
	if !ok {
		return fmt.Errorf("heartbeat from unregistered node %s: %w", req.ID, core.ErrNotFound)
	}
	st.mu.Lock()
	if st.info.State == core.NodeDead {
		st.mu.Unlock()
		return fmt.Errorf("heartbeat from decommissioned node %s: %w", req.ID, core.ErrNotFound)
	}
	st.info.Free = req.Free
	st.info.ChunkHeld = req.Chunks
	st.info.Online = true
	st.info.State = core.NodeOnline
	st.info.LastSeen = time.Now()
	st.mu.Unlock()
	return nil
}

// sweep walks silent nodes down the lifecycle: online nodes past the ttl
// become suspect, suspect nodes past deadAfter become dead. It returns
// the IDs that transitioned during this sweep; the caller decommissions
// the dead ones. A node declared dead has its reservation counter zeroed
// here — the decommission releases the node's promises — under the same
// leaf lock that flips the state, so the pair is atomic.
func (r *registry) sweep(now time.Time) (suspect, dead []core.NodeID) {
	r.tbl.rlock()
	defer r.tbl.runlock()
	for id, st := range r.nodes {
		st.mu.Lock()
		silent := now.Sub(st.info.LastSeen)
		switch st.info.State {
		case core.NodeOnline:
			if silent > r.ttl {
				st.info.Online = false
				st.info.State = core.NodeSuspect
				suspect = append(suspect, id)
			}
		case core.NodeSuspect:
			if r.deadAfter > 0 && silent > r.deadAfter {
				st.info.State = core.NodeDead
				st.reserved = 0
				dead = append(dead, id)
			}
		}
		st.mu.Unlock()
	}
	return suspect, dead
}

// online reports whether the node is currently considered alive.
func (r *registry) online(id core.NodeID) bool {
	st, ok := r.lookup(id)
	if !ok {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.info.Online
}

// addr returns a node's service address.
func (r *registry) addr(id core.NodeID) (string, bool) {
	st, ok := r.lookup(id)
	if !ok {
		return "", false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.info.Addr, true
}

// list snapshots all registrations.
func (r *registry) list() []core.BenefactorInfo {
	r.tbl.rlock()
	defer r.tbl.runlock()
	out := make([]core.BenefactorInfo, 0, len(r.nodes))
	for _, id := range r.ring {
		st := r.nodes[id]
		st.mu.Lock()
		info := st.info
		info.Reserved = st.reserved
		st.mu.Unlock()
		out = append(out, info)
	}
	return out
}

// counts returns node counts by lifecycle state.
func (r *registry) counts() (total, online, suspect, dead int) {
	r.tbl.rlock()
	defer r.tbl.runlock()
	for _, st := range r.nodes {
		st.mu.Lock()
		switch st.info.State {
		case core.NodeSuspect:
			suspect++
		case core.NodeDead:
			dead++
		default:
			if st.info.Online {
				online++
			}
		}
		st.mu.Unlock()
	}
	return len(r.nodes), online, suspect, dead
}

// allocateStripe picks `width` online benefactors in round-robin order
// (paper §IV.A: round-robin striping) that can each accommodate
// perNodeBytes of new reservation, and reserves that space. Fewer than
// `width` nodes may be returned if the pool is small but non-empty; an
// empty pool is an error.
//
// The table is only read-locked: the rotation point comes from one atomic
// cursor increment, and each candidate is admitted (and charged) under
// its own leaf lock, so concurrent allocations on a wide pool proceed in
// parallel instead of queueing on the registry.
func (r *registry) allocateStripe(width int, perNodeBytes int64) ([]proto.Stripe, error) {
	if width <= 0 {
		width = 1
	}
	r.tbl.rlock()
	defer r.tbl.runlock()
	n := len(r.ring)
	if n == 0 {
		return nil, core.ErrNoBenefactors
	}
	start := int((r.cursor.Add(1) - 1) % uint64(n))
	var stripe []proto.Stripe
	for probe := 0; probe < n && len(stripe) < width; probe++ {
		id := r.ring[(start+probe)%n]
		st := r.nodes[id]
		st.mu.Lock()
		ok := st.info.Online && st.info.Free-st.reserved >= perNodeBytes
		if ok {
			st.reserved += perNodeBytes
			stripe = append(stripe, proto.Stripe{ID: id, Addr: st.info.Addr})
		}
		st.mu.Unlock()
	}
	if len(stripe) == 0 {
		return nil, fmt.Errorf("allocate stripe width %d: %w", width, core.ErrNoBenefactors)
	}
	return stripe, nil
}

// reserve adds bytes to existing per-node reservations (MExtend).
func (r *registry) reserve(ids []core.NodeID, perNodeBytes int64) {
	for _, id := range ids {
		if st, ok := r.lookup(id); ok {
			st.mu.Lock()
			st.reserved += perNodeBytes
			st.mu.Unlock()
		}
	}
}

// release returns reserved bytes to the pool (commit, abort, session
// expiry).
func (r *registry) release(ids []core.NodeID, perNodeBytes int64) {
	r.releases.Add(1)
	for _, id := range ids {
		st, ok := r.lookup(id)
		if !ok {
			continue
		}
		st.mu.Lock()
		st.reserved -= perNodeBytes
		if st.reserved < 0 {
			st.reserved = 0
		}
		st.mu.Unlock()
	}
}

// pickTargets selects up to n online nodes, excluding `exclude`, with the
// most available space first (replication destinations), and charges each
// selected node a perBytes transfer reservation so concurrent repair
// rounds cannot collectively overfill a node that admission control
// thinks has free space. The caller MUST release every returned node's
// reservation once its copy lands or fails; the copied bytes then show up
// in the node's next heartbeat Free (one heartbeat of double-count slack
// is accepted over holding reservations hostage to heartbeat timing).
func (r *registry) pickTargets(n int, exclude map[core.NodeID]struct{}, perBytes int64) []proto.Stripe {
	r.tbl.rlock()
	defer r.tbl.runlock()
	type cand struct {
		id    core.NodeID
		st    *benefactorState
		addr  string
		avail int64
	}
	var cands []cand
	for id, st := range r.nodes {
		if _, skip := exclude[id]; skip {
			continue
		}
		st.mu.Lock()
		online := st.info.Online
		addr := st.info.Addr
		avail := st.info.Free - st.reserved
		st.mu.Unlock()
		if !online || avail < perBytes {
			continue
		}
		cands = append(cands, cand{id: id, st: st, addr: addr, avail: avail})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].avail != cands[j].avail {
			return cands[i].avail > cands[j].avail
		}
		return cands[i].id < cands[j].id
	})
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]proto.Stripe, 0, n)
	for _, c := range cands[:n] {
		// Re-admit under the leaf lock: the sort ran on a stale snapshot
		// and a racing allocation may have claimed the space since.
		c.st.mu.Lock()
		if c.st.info.Online && c.st.info.Free-c.st.reserved >= perBytes {
			c.st.reserved += perBytes
			out = append(out, proto.Stripe{ID: c.id, Addr: c.addr})
		}
		c.st.mu.Unlock()
	}
	return out
}
