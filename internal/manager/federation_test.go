package manager

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/federation"
	"stdchk/internal/proto"
)

// fedMembers starts an in-process federation of n managers sharing one
// member list, each with a registered benefactor, and returns them.
func fedMembers(t *testing.T, n int) []*Manager {
	t.Helper()
	members := make([]string, n)
	for i := range members {
		members[i] = fmt.Sprintf("fedtest-member-%d:9400", i)
	}
	out := make([]*Manager, n)
	for i := range out {
		m, err := New(Config{
			FederationMembers: members,
			MemberIndex:       i,
			HeartbeatInterval: time.Hour,
			SessionTTL:        time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Close() })
		req := proto.RegisterReq{
			ID: core.NodeID(fmt.Sprintf("fb%d", i)), Addr: fmt.Sprintf("fb%d:1", i),
			Capacity: 1 << 40, Free: 1 << 40,
		}
		if err := m.Invoke(proto.MRegister, req, nil); err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// TestPartitionFilterAgreesWithRouterMap is the manager half of the
// partition property test: for many dataset keys, exactly the member that
// federation.OwnerIndex names accepts an alloc; every other member
// rejects it with ErrNotOwner. The router and the filter share the
// partition function, so this pins their agreement end to end.
func TestPartitionFilterAgreesWithRouterMap(t *testing.T) {
	const n = 3
	mgrs := fedMembers(t, n)
	for trial := 0; trial < 40; trial++ {
		name := fmt.Sprintf("fedapp%d.n%d.t0", trial%7, trial)
		owner := federation.OwnerIndex(fmt.Sprintf("fedapp%d.n%d", trial%7, trial), n)
		for i, m := range mgrs {
			if got := m.owns(name); got != (i == owner) {
				t.Fatalf("%s: member %d owns=%v, want owner %d", name, i, got, owner)
			}
			var alloc proto.AllocResp
			err := m.Invoke(proto.MAlloc, proto.AllocReq{Name: name, ReserveBytes: 1 << 10}, &alloc)
			if i == owner {
				if err != nil {
					t.Fatalf("%s: owner %d rejected alloc: %v", name, i, err)
				}
				if err := m.Invoke(proto.MAbort, proto.AbortReq{WriteID: alloc.WriteID}, nil); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if !errors.Is(err, core.ErrNotOwner) {
				t.Fatalf("%s: member %d (owner %d) returned %v, want ErrNotOwner", name, i, owner, err)
			}
		}
	}
}

// TestPartitionEpochMismatch checks the configuration-drift guard: a
// request carrying a different epoch is rejected even on the owner, a
// request with epoch 0 (a non-federation-aware caller) passes the
// ownership check only.
func TestPartitionEpochMismatch(t *testing.T) {
	const n = 2
	mgrs := fedMembers(t, n)
	// Find a name owned by member 0.
	name := ""
	for i := 0; ; i++ {
		cand := fmt.Sprintf("drift.n%d", i)
		if federation.OwnerIndex(cand, n) == 0 {
			name = cand + ".t0"
			break
		}
	}
	goodEpoch := mgrs[0].fed.Epoch()
	err := mgrs[0].Invoke(proto.MAlloc, proto.AllocReq{Name: name, Epoch: proto.Epoch{PartitionEpoch: goodEpoch ^ 1}, ReserveBytes: 1}, nil)
	if !errors.Is(err, core.ErrEpochMismatch) {
		t.Fatalf("stale epoch: %v, want ErrEpochMismatch", err)
	}
	var alloc proto.AllocResp
	if err := mgrs[0].Invoke(proto.MAlloc, proto.AllocReq{Name: name, Epoch: proto.Epoch{PartitionEpoch: goodEpoch}, ReserveBytes: 1}, &alloc); err != nil {
		t.Fatalf("matching epoch rejected: %v", err)
	}
	if err := mgrs[0].Invoke(proto.MAbort, proto.AbortReq{WriteID: alloc.WriteID}, nil); err != nil {
		t.Fatal(err)
	}
	if err := mgrs[0].Invoke(proto.MStat, proto.StatReq{Name: name}, nil); errors.Is(err, core.ErrEpochMismatch) {
		t.Fatalf("epoch-0 caller rejected by epoch check: %v", err)
	}

	// The inverse misconfiguration: a standalone manager (a federation
	// member restarted without its -federation flags) must refuse a
	// multi-member router's epoch instead of silently serving every
	// partition.
	solo, err := New(Config{HeartbeatInterval: time.Hour, SessionTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { solo.Close() })
	err = solo.Invoke(proto.MStat, proto.StatReq{Name: name, Epoch: proto.Epoch{PartitionEpoch: goodEpoch}}, nil)
	if !errors.Is(err, core.ErrEpochMismatch) {
		t.Fatalf("standalone manager accepted a federated epoch: %v", err)
	}
}

// TestRegistryStatsCounters checks the registry's traffic surfaces through
// ManagerStats: allocs, extends and heartbeats in the op table record,
// reservation returns and node-table lock acquisitions in the counter
// record.
func TestRegistryStatsCounters(t *testing.T) {
	m := startManager(t, Config{})
	for _, id := range []string{"s1", "s2"} {
		if err := m.Invoke(proto.MRegister, regReq(id, 1<<20), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Invoke(proto.MHeartbeat, proto.HeartbeatReq{ID: "s1", Free: 1 << 20}, nil); err != nil {
		t.Fatal(err)
	}
	var alloc proto.AllocResp
	if err := m.Invoke(proto.MAlloc, proto.AllocReq{Name: "r.n1.t0", StripeWidth: 2, ReserveBytes: 2048}, &alloc); err != nil {
		t.Fatal(err)
	}
	if err := m.Invoke(proto.MExtend, proto.ExtendReq{WriteID: alloc.WriteID, Bytes: 1024}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Invoke(proto.MAbort, proto.AbortReq{WriteID: alloc.WriteID}, nil); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	releases := counter(t, st, "registry.releases")
	if st.Ops[proto.MAlloc].Count != 1 || st.Ops[proto.MExtend].Count != 1 || releases != 1 || st.Ops[proto.MHeartbeat].Count != 1 {
		t.Fatalf("allocs %d, extends %d, releases %d, heartbeats %d; want 1 each",
			st.Ops[proto.MAlloc].Count, st.Ops[proto.MExtend].Count, releases, st.Ops[proto.MHeartbeat].Count)
	}
	if counter(t, st, "registry.lock_ops") == 0 {
		t.Fatalf("node-table lock ops never counted: %+v", st.Counters)
	}
	for _, info := range m.reg.list() {
		if info.Reserved != 0 {
			t.Fatalf("node %s left with %d reserved after full release", info.ID, info.Reserved)
		}
	}
}

// TestRegistryConcurrentAlloc audits the RLock-mostly registry under
// parallel allocation: reservations must balance exactly once everything
// is released, heartbeats must interleave without corrupting soft state,
// and round-robin must keep touching multiple nodes. Run with -race this
// is the concurrency proof for the atomic-cursor redesign.
func TestRegistryConcurrentAlloc(t *testing.T) {
	r := newRegistry(time.Minute, 0)
	const nodes, workers, rounds = 8, 12, 40
	for i := 0; i < nodes; i++ {
		r.register(regReq(fmt.Sprintf("cn%d", i), 1<<30), 0)
	}
	var wg sync.WaitGroup
	touched := make([]map[core.NodeID]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			touched[w] = make(map[core.NodeID]int)
			for i := 0; i < rounds; i++ {
				stripe, err := r.allocateStripe(2, 4096)
				if err != nil {
					t.Error(err)
					return
				}
				ids := make([]core.NodeID, 0, len(stripe))
				for _, s := range stripe {
					ids = append(ids, s.ID)
					touched[w][s.ID]++
				}
				r.reserve(ids, 4096)
				if i%3 == 0 {
					if err := r.heartbeat(proto.HeartbeatReq{ID: ids[0], Free: 1 << 30}); err != nil {
						t.Error(err)
						return
					}
				}
				r.release(ids, 8192)
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	distinct := make(map[core.NodeID]struct{})
	for _, m := range touched {
		for id := range m {
			distinct[id] = struct{}{}
		}
	}
	if len(distinct) < nodes/2 {
		t.Fatalf("round-robin touched only %d of %d nodes", len(distinct), nodes)
	}
	for _, info := range r.list() {
		if info.Reserved != 0 {
			t.Fatalf("node %s left with %d reserved bytes", info.ID, info.Reserved)
		}
	}
}

// TestFederationConfigValidation rejects inconsistent member/index
// configurations.
func TestFederationConfigValidation(t *testing.T) {
	_, err := New(Config{FederationMembers: []string{"a:1", "b:1"}, MemberIndex: 2})
	if err == nil {
		t.Fatal("out-of-range member index accepted")
	}
	_, err = New(Config{FederationMembers: []string{"a:1", "a:1"}, MemberIndex: 0})
	if err == nil {
		t.Fatal("duplicate member list accepted")
	}
}
