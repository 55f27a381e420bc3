package manager

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// TestRegistryLifecycleToDead walks one node through the full state
// machine with synthetic sweep times: online -> suspect (past ttl) ->
// dead (past deadAfter), with a heartbeat rescuing a suspect in between
// and a dead node's heartbeat rejected so it must re-register.
func TestRegistryLifecycleToDead(t *testing.T) {
	r := newRegistry(50*time.Millisecond, 120*time.Millisecond)
	r.register(regReq("n1", 1000), 700)
	t0 := time.Now()

	suspect, dead := r.sweep(t0.Add(60 * time.Millisecond))
	if len(suspect) != 1 || suspect[0] != "n1" || len(dead) != 0 {
		t.Fatalf("sweep past ttl: suspect=%v dead=%v", suspect, dead)
	}
	if r.online("n1") {
		t.Fatal("suspect node still counts as online")
	}

	// A heartbeat rescues the suspect.
	if err := r.heartbeat(proto.HeartbeatReq{ID: "n1", Free: 900}); err != nil {
		t.Fatal(err)
	}
	if !r.online("n1") {
		t.Fatal("heartbeat did not restore a suspect to online")
	}

	// Silence again, this time through to death. Both transitions measure
	// from the same LastSeen, so a single late sweep only moves the node
	// one step (online -> suspect); death needs a second sweep.
	hbAt := time.Now()
	if s, d := r.sweep(hbAt.Add(130 * time.Millisecond)); len(s) != 1 || len(d) != 0 {
		t.Fatalf("late sweep: suspect=%v dead=%v, want one suspect step", s, d)
	}
	suspect, dead = r.sweep(hbAt.Add(140 * time.Millisecond))
	if len(suspect) != 0 || len(dead) != 1 || dead[0] != "n1" {
		t.Fatalf("sweep past deadAfter: suspect=%v dead=%v", suspect, dead)
	}
	st, ok := r.lookup("n1")
	if !ok {
		t.Fatal("dead node vanished from the table")
	}
	st.mu.Lock()
	state, reserved := st.info.State, st.reserved
	st.mu.Unlock()
	if state != core.NodeDead || reserved != 0 {
		t.Fatalf("dead node: state=%s reserved=%d, want dead with reservation zeroed", state, reserved)
	}

	// Dead nodes cannot heartbeat back to life: the rejection forces a
	// re-registration, which is where inventory reconciliation happens.
	if err := r.heartbeat(proto.HeartbeatReq{ID: "n1"}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("heartbeat from dead node: %v, want ErrNotFound", err)
	}
	if prev := r.register(regReq("n1", 1000), 0); prev != core.NodeDead {
		t.Fatalf("re-register returned prev state %q, want dead", prev)
	}
	if !r.online("n1") {
		t.Fatal("re-registered node not online")
	}

	total, online, suspectN, deadN := r.counts()
	if total != 1 || online != 1 || suspectN != 0 || deadN != 0 {
		t.Fatalf("counts after rejoin = %d/%d/%d/%d", total, online, suspectN, deadN)
	}
}

// TestRegisterPreservesSessionReservations: a flapping benefactor that
// re-registers mid-write must keep the space its open sessions were
// promised — clearing it would let the manager over-promise the node.
func TestRegisterPreservesSessionReservations(t *testing.T) {
	m, err := New(Config{HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.reg.register(regReq("n1", 1<<20), 0)
	if _, err := m.handleAlloc(proto.AllocReq{
		Name: "resv.n1.t0", StripeWidth: 1, ChunkSize: 10, ReserveBytes: 4096,
	}); err != nil {
		t.Fatal(err)
	}
	want := m.sess.reservedOn("n1")
	if want <= 0 {
		t.Fatalf("open session reserves %d on n1, want > 0", want)
	}

	if _, err := m.handleRegister(regReq("n1", 1<<20)); err != nil {
		t.Fatal(err)
	}
	st, _ := m.reg.lookup("n1")
	st.mu.Lock()
	got := st.reserved
	st.mu.Unlock()
	if got != want {
		t.Fatalf("re-registration set reserved=%d, want the session's %d", got, want)
	}
}

// TestRegisterReconciliation: a rejoining node's inventory splits into
// re-adopted locations (chunks the catalog still references) and a
// garbage verdict for the rest.
func TestRegisterReconciliation(t *testing.T) {
	m, err := New(Config{HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.reg.register(regReq("n1", 1<<20), 0)
	alloc, err := m.handleAlloc(proto.AllocReq{Name: "rec.n1.t0", StripeWidth: 1, ChunkSize: 10, ReserveBytes: 100, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	chunks, total := commitChunks(41, 3, 10)
	if _, err := m.handleCommit(proto.CommitReq{
		WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
	}); err != nil {
		t.Fatal(err)
	}
	// Simulate the decommission having dropped this node's locations.
	if dropped := m.cat.dropLocationEverywhere("n1"); dropped != 3 {
		t.Fatalf("dropped %d locations, want 3", dropped)
	}

	req := regReq("n1", 1<<20)
	stray := core.HashChunk([]byte("never committed"))
	for _, ch := range chunks {
		req.Chunks = append(req.Chunks, ch.ID)
	}
	req.Chunks = append(req.Chunks, stray)
	resp, err := m.handleRegister(req)
	if err != nil {
		t.Fatal(err)
	}
	reg := resp.Meta.(proto.RegisterResp)
	if reg.Reconciled != 3 {
		t.Fatalf("reconciled %d locations, want 3", reg.Reconciled)
	}
	if len(reg.Garbage) != 1 || reg.Garbage[0] != stray {
		t.Fatalf("garbage = %v, want just the stray chunk", reg.Garbage)
	}
	// The heal is complete: nothing under-replicated, no repair copies.
	if jobs := m.cat.underReplicated(nil); len(jobs) != 0 {
		t.Fatalf("%d repair jobs after reconciliation, want 0", len(jobs))
	}
}

// TestDecommissionJournaledAndReplayed: decommission drops every location
// of the dead node and journals the event, so a restarted manager does
// not resurrect pointers at a node declared dead before the crash.
func TestDecommissionJournaledAndReplayed(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "mgr.journal")
	m1, err := New(Config{JournalPath: jpath, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	m1.reg.register(regReq("n1", 1<<20), 0)
	alloc, err := m1.handleAlloc(proto.AllocReq{Name: "dec.n1.t0", StripeWidth: 1, ChunkSize: 10, ReserveBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	chunks, total := commitChunks(43, 2, 10)
	if _, err := m1.handleCommit(proto.CommitReq{
		WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
	}); err != nil {
		t.Fatal(err)
	}
	m1.decommission("n1")
	noLocations := func(m *Manager, when string) {
		t.Helper()
		_, cm, err := m.cat.getMap("dec.n1", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, locs := range cm.Locations {
			for _, n := range locs {
				if n == "n1" {
					t.Fatalf("%s: chunk %d still locates decommissioned n1", when, i)
				}
			}
		}
	}
	noLocations(m1, "live")
	if got := m1.Stats().Repair.Decommissions; got != 1 {
		t.Fatalf("decommissions stat = %d, want 1", got)
	}
	m1.Close()

	m2, err := New(Config{JournalPath: jpath, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	noLocations(m2, "after journal replay")
}

// TestUnderReplicatedPriorityBands: chunks one failure from loss come
// back before merely-degraded ones, so a byte budget consuming jobs in
// order always spends on the most exposed data first.
func TestUnderReplicatedPriorityBands(t *testing.T) {
	c := newCatalog()
	bulk, btotal := commitChunks(51, 2, 10) // 1 live of target 3 after edits below
	for i := range bulk {
		bulk[i].Locations = []core.NodeID{"n1", "n2"}
	}
	if _, _, _, err := c.commit("b.n1.t0", "b", 3, 10, false, btotal, bulk, ""); err != nil {
		t.Fatal(err)
	}
	critical, ctotal := commitChunks(52, 2, 10)
	if _, _, _, err := c.commit("c.n1.t0", "c", 2, 10, false, ctotal, critical, ""); err != nil {
		t.Fatal(err)
	}

	jobs := c.underReplicated(nil)
	if len(jobs) != 4 {
		t.Fatalf("%d jobs, want 4", len(jobs))
	}
	for i, j := range jobs {
		if i < 2 && len(j.sources) != 1 {
			t.Fatalf("job %d has %d sources; critical (single-replica) chunks must come first: %+v", i, len(j.sources), jobs)
		}
		if i >= 2 && len(j.sources) != 2 {
			t.Fatalf("job %d has %d sources; bulk chunks must follow the critical band: %+v", i, len(j.sources), jobs)
		}
	}
}

// TestPickTargetsChargesReservation: repair placement charges the copy
// bytes against the target under its leaf lock, so concurrent rounds and
// client allocations cannot oversubscribe a node; release returns it.
func TestPickTargetsChargesReservation(t *testing.T) {
	r := newRegistry(time.Minute, 0)
	r.register(regReq("n1", 1000), 0)
	r.register(regReq("n2", 1000), 0)

	first := r.pickTargets(1, map[core.NodeID]struct{}{"n2": {}}, 400)
	if len(first) != 1 || first[0].ID != "n1" {
		t.Fatalf("targets = %+v, want n1", first)
	}
	// n1 has 600 left: a 700-byte job must not land there.
	if tg := r.pickTargets(2, nil, 700); len(tg) != 1 || tg[0].ID != "n2" {
		t.Fatalf("targets with n1 at 600 free = %+v, want just n2", tg)
	}
	r.release([]core.NodeID{"n2"}, 700)

	r.release([]core.NodeID{"n1"}, 400)
	if tg := r.pickTargets(2, nil, 700); len(tg) != 2 {
		t.Fatalf("targets after release = %+v, want both nodes", tg)
	}
}
