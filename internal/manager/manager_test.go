package manager

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

func regReq(id string, free int64) proto.RegisterReq {
	return proto.RegisterReq{
		ID:       core.NodeID(id),
		Addr:     id + ":1",
		Capacity: free,
		Free:     free,
	}
}

func TestRegistryRegisterHeartbeatSweep(t *testing.T) {
	r := newRegistry(50*time.Millisecond, 0)
	r.register(regReq("n1", 1000), 0)
	r.register(regReq("n2", 1000), 0)
	if total, online, _, _ := r.counts(); total != 2 || online != 2 {
		t.Fatalf("counts = %d/%d", online, total)
	}
	if err := r.heartbeat(proto.HeartbeatReq{ID: "n1", Free: 900}); err != nil {
		t.Fatal(err)
	}
	if err := r.heartbeat(proto.HeartbeatReq{ID: "ghost"}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("ghost heartbeat: %v", err)
	}
	// After TTL, both turn suspect.
	suspect, dead := r.sweep(time.Now().Add(100 * time.Millisecond))
	if len(suspect) != 2 || len(dead) != 0 {
		t.Fatalf("sweep = %d suspect, %d dead; want 2, 0", len(suspect), len(dead))
	}
	if r.online("n1") {
		t.Fatal("n1 online after sweep")
	}
	// Re-registration revives.
	r.register(regReq("n1", 500), 0)
	if !r.online("n1") {
		t.Fatal("n1 offline after re-register")
	}
}

func TestRegistryAllocateStripeRoundRobin(t *testing.T) {
	r := newRegistry(time.Minute, 0)
	for i := 0; i < 4; i++ {
		r.register(regReq(fmt.Sprintf("n%d", i), 1<<20), 0)
	}
	// Width 2 stripes must rotate across registrations.
	first, err := r.allocateStripe(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.allocateStripe(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if first[0].ID == second[0].ID {
		t.Fatalf("round robin did not rotate: both stripes start at %s", first[0].ID)
	}
}

func TestRegistryAllocateSkipsFullAndOffline(t *testing.T) {
	r := newRegistry(time.Minute, 0)
	r.register(regReq("big", 1<<20), 0)
	r.register(regReq("small", 10), 0)
	stripe, err := r.allocateStripe(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(stripe) != 1 || stripe[0].ID != "big" {
		t.Fatalf("stripe = %+v, want only 'big'", stripe)
	}
	// Exhaust big's space: reservations accumulate.
	if _, err := r.allocateStripe(1, 1<<20-100); err != nil {
		t.Fatal(err)
	}
	if _, err := r.allocateStripe(1, 100); !errors.Is(err, core.ErrNoBenefactors) {
		t.Fatalf("allocation beyond capacity: %v", err)
	}
	// Releasing reservations restores capacity.
	r.release([]core.NodeID{"big"}, 1<<20-100)
	if _, err := r.allocateStripe(1, 100); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryAllocateEmptyPool(t *testing.T) {
	r := newRegistry(time.Minute, 0)
	if _, err := r.allocateStripe(2, 10); !errors.Is(err, core.ErrNoBenefactors) {
		t.Fatalf("empty pool: %v", err)
	}
}

func TestRegistryPickTargets(t *testing.T) {
	r := newRegistry(time.Minute, 0)
	r.register(regReq("a", 100), 0)
	r.register(regReq("b", 1000), 0)
	r.register(regReq("c", 500), 0)
	targets := r.pickTargets(2, map[core.NodeID]struct{}{"b": {}}, 0)
	if len(targets) != 2 {
		t.Fatalf("%d targets, want 2", len(targets))
	}
	// Most available space first, excluding b.
	if targets[0].ID != "c" || targets[1].ID != "a" {
		t.Fatalf("targets = %v, want [c a]", targets)
	}
}

func commitChunks(seed int64, n int, size int64) ([]proto.CommitChunk, int64) {
	var chunks []proto.CommitChunk
	var total int64
	for i := 0; i < n; i++ {
		data := payloadBytes(seed*100+int64(i), int(size))
		chunks = append(chunks, proto.CommitChunk{
			ID:        core.HashChunk(data),
			Size:      size,
			Locations: []core.NodeID{"n1"},
		})
		total += size
	}
	return chunks, total
}

func payloadBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	state := uint64(seed)*2654435761 + 1
	for i := range b {
		state = state*6364136223846793005 + 1442695040888963407
		b[i] = byte(state >> 56)
	}
	return b
}

func TestCatalogCommitAndGetMap(t *testing.T) {
	c := newCatalog()
	chunks, total := commitChunks(1, 3, 100)
	dsID, ver, newBytes, err := c.commit("app.n1.t0", "app", 2, 100, false, total, chunks, "")
	if err != nil {
		t.Fatal(err)
	}
	if newBytes != total {
		t.Fatalf("newBytes = %d, want %d", newBytes, total)
	}
	name, got, err := c.getMap("app.n1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if name != "app.n1.t0" {
		t.Fatalf("resolved name %q", name)
	}
	if got.Dataset != dsID || got.Version != ver || len(got.Chunks) != 3 || got.FileSize != total {
		t.Fatalf("map mismatch: %+v, commit said dataset %d version %d", got, dsID, ver)
	}
}

func TestCatalogCommitValidation(t *testing.T) {
	c := newCatalog()
	chunks, total := commitChunks(2, 2, 100)
	tests := []struct {
		name string
		mut  func() ([]proto.CommitChunk, int64)
	}{
		{"size mismatch", func() ([]proto.CommitChunk, int64) { return chunks, total + 1 }},
		{"oversize chunk", func() ([]proto.CommitChunk, int64) {
			bad := append([]proto.CommitChunk(nil), chunks...)
			bad[0].Size = 101
			return bad, total + 1
		}},
		{"zero chunk", func() ([]proto.CommitChunk, int64) {
			bad := append([]proto.CommitChunk(nil), chunks...)
			bad[0].Size = 0
			return bad, total - 100
		}},
		{"unknown shared chunk", func() ([]proto.CommitChunk, int64) {
			bad := append([]proto.CommitChunk(nil), chunks...)
			bad[0].Locations = nil
			return bad, total
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cs, fs := tt.mut()
			if _, _, _, err := c.commit("x.n1.t0", "x", 1, 100, false, fs, cs, ""); err == nil {
				t.Fatal("invalid commit accepted")
			}
		})
	}
}

func TestCatalogCOWSharing(t *testing.T) {
	c := newCatalog()
	chunks, total := commitChunks(3, 4, 50)
	if _, _, _, err := c.commit("cow.n1.t0", "cow", 1, 50, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	// Second version shares chunks 0..2 (no locations = COW reference)
	// and adds one new chunk.
	newData := payloadBytes(999, 50)
	shared := []proto.CommitChunk{
		{ID: chunks[0].ID, Size: 50},
		{ID: chunks[1].ID, Size: 50},
		{ID: chunks[2].ID, Size: 50},
		{ID: core.HashChunk(newData), Size: 50, Locations: []core.NodeID{"n2"}},
	}
	_, _, newBytes, err := c.commit("cow.n1.t1", "cow", 1, 50, false, total, shared, "")
	if err != nil {
		t.Fatal(err)
	}
	if newBytes != 50 {
		t.Fatalf("newBytes = %d, want 50 (one new chunk)", newBytes)
	}
	ds, vs, uniq, logical, stored := c.counters()
	if ds != 1 || vs != 2 {
		t.Fatalf("datasets %d versions %d", ds, vs)
	}
	if uniq != 5 {
		t.Fatalf("unique chunks %d, want 5", uniq)
	}
	if logical != 2*total || stored != total+50 {
		t.Fatalf("logical %d stored %d", logical, stored)
	}

	// Deleting v0 must not orphan the shared chunks.
	orphans, err := c.deleteVersion("cow.n1.t0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 1 {
		t.Fatalf("%d orphans, want 1 (only v0's unshared chunk)", len(orphans))
	}
	if orphans[0] != chunks[3].ID {
		t.Fatal("wrong chunk orphaned")
	}
	// v1 still fully resolvable.
	_, m, err := c.getMap("cow.n1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCatalogDeleteWholeDataset(t *testing.T) {
	c := newCatalog()
	chunks, total := commitChunks(4, 2, 10)
	if _, _, _, err := c.commit("d.n1.t0", "d", 1, 10, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	orphans, err := c.deleteVersion("d.n1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(orphans) != 2 {
		t.Fatalf("%d orphans, want 2", len(orphans))
	}
	if _, _, err := c.getMap("d.n1", 0, 0); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("getMap after delete: %v", err)
	}
	if _, err := c.deleteVersion("d.n1", 0); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestCatalogHasChunksAndReferenced(t *testing.T) {
	c := newCatalog()
	chunks, total := commitChunks(5, 2, 10)
	ghost := core.HashChunk([]byte("ghost"))
	if _, _, _, err := c.commit("h.n1.t0", "h", 1, 10, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	got := c.hasChunks([]core.ChunkID{chunks[0].ID, ghost})
	if !got[0] || got[1] {
		t.Fatalf("hasChunks = %v", got)
	}
	if !c.referenced(chunks[0].ID) || c.referenced(ghost) {
		t.Fatal("referenced() wrong")
	}
}

func TestCatalogTrimVersions(t *testing.T) {
	c := newCatalog()
	for ts := 0; ts < 5; ts++ {
		chunks, total := commitChunks(int64(10+ts), 2, 10)
		if _, _, _, err := c.commit(fmt.Sprintf("t.n1.t%d", ts), "t", 1, 10, false, total, chunks, ""); err != nil {
			t.Fatal(err)
		}
	}
	removed, orphans, err := c.retain("t.n1", core.Retention{KeepLast: 2})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed %d, want 3", removed)
	}
	if len(orphans) != 6 {
		t.Fatalf("%d orphans, want 6", len(orphans))
	}
	info, err := c.stat("t.n1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 2 {
		t.Fatalf("%d versions left, want 2", len(info.Versions))
	}
	if info.Versions[0].Name != "t.n1.t3" {
		t.Fatalf("oldest survivor %s, want t.n1.t3", info.Versions[0].Name)
	}
}

func TestCatalogPurgeOlderThan(t *testing.T) {
	c := newCatalog()
	chunks, total := commitChunks(20, 2, 10)
	if _, _, _, err := c.commit("p.n1.t0", "p", 1, 10, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	// Nothing younger than the far past.
	if removed, _, err := c.applyRetention("p", core.Retention{}, time.Now().Add(-time.Hour)); err != nil || removed != 0 {
		t.Fatalf("purged %d (err %v), want 0", removed, err)
	}
	if removed, _, err := c.applyRetention("p", core.Retention{}, time.Now().Add(time.Hour)); err != nil || removed != 1 {
		t.Fatalf("purged %d (err %v), want 1", removed, err)
	}
	if _, err := c.stat("p.n1", nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("stat after purge: %v", err)
	}
}

// TestCatalogDryRunRetentionMatchesSweep pins the audit contract: the
// dry run names exactly the versions the real sweep would remove, and
// names them without removing anything.
func TestCatalogDryRunRetentionMatchesSweep(t *testing.T) {
	c := newCatalog()
	for ts := 0; ts < 5; ts++ {
		chunks, total := commitChunks(int64(40+ts), 2, 10)
		if _, _, _, err := c.commit(fmt.Sprintf("dr.n1.t%d", ts), "dr", 1, 10, false, total, chunks, ""); err != nil {
			t.Fatal(err)
		}
	}
	victims := c.dryRunRetention("dr", core.Retention{KeepLast: 2}, time.Time{})
	if len(victims) != 3 {
		t.Fatalf("dry run names %d victims, want 3: %+v", len(victims), victims)
	}
	for i, v := range victims {
		want := fmt.Sprintf("dr.n1.t%d", i)
		if v.Name != want {
			t.Fatalf("victim %d is %q, want %q", i, v.Name, want)
		}
		if v.FileSize <= 0 || v.Version == 0 || v.CommittedAt.IsZero() {
			t.Fatalf("victim %d lacks identity fields: %+v", i, v)
		}
	}
	// Auditing mutated nothing.
	info, err := c.stat("dr.n1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 5 {
		t.Fatalf("dry run removed versions: %d left, want 5", len(info.Versions))
	}
	// The real sweep removes exactly the predicted set.
	removed, _, err := c.applyRetention("dr", core.Retention{KeepLast: 2}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if removed != len(victims) {
		t.Fatalf("sweep removed %d versions, dry run predicted %d", removed, len(victims))
	}
	info, err = c.stat("dr.n1", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 2 || info.Versions[0].Name != "dr.n1.t3" {
		t.Fatalf("post-sweep survivors: %+v", info.Versions)
	}
}

func TestCatalogUnderReplicated(t *testing.T) {
	c := newCatalog()
	chunks, total := commitChunks(30, 3, 10)
	if _, _, _, err := c.commit("u.n1.t0", "u", 2, 10, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	jobs := c.underReplicated(nil)
	if len(jobs) != 3 {
		t.Fatalf("%d jobs, want 3 (all chunks at level 1, target 2)", len(jobs))
	}
	for _, j := range jobs {
		if j.needed != 1 || len(j.sources) != 1 {
			t.Fatalf("job = %+v", j)
		}
	}
	// Marking n1 offline leaves no live source: no jobs (nothing to copy from).
	jobs = c.underReplicated(func(core.NodeID) bool { return false })
	if len(jobs) != 0 {
		t.Fatalf("%d jobs with all nodes offline, want 0", len(jobs))
	}
	// Adding locations to target level silences the scheduler.
	for _, ch := range chunks {
		c.addLocation(ch.ID, "n2")
	}
	if jobs := c.underReplicated(nil); len(jobs) != 0 {
		t.Fatalf("%d jobs after repair, want 0", len(jobs))
	}
}

func TestCatalogUnderReplicatedSharedChunkMaxTarget(t *testing.T) {
	c := newCatalog()
	// One chunk, already on two nodes, referenced by dataset A (target 2)
	// and dataset B (target 3): B's higher target must still produce a
	// job with needed=1 regardless of which dataset the scan meets first.
	data := payloadBytes(900, 10)
	shared := []proto.CommitChunk{{
		ID: core.HashChunk(data), Size: 10, Locations: []core.NodeID{"n1", "n2"},
	}}
	if _, _, _, err := c.commit("ua.n1.t0", "ua", 2, 10, false, 10, shared, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.commit("ub.n1.t0", "ub", 3, 10, false, 10, shared, ""); err != nil {
		t.Fatal(err)
	}
	jobs := c.underReplicated(nil)
	if len(jobs) != 1 {
		t.Fatalf("%d jobs, want 1 (shared chunk under B's target 3)", len(jobs))
	}
	if jobs[0].needed != 1 || len(jobs[0].sources) != 2 {
		t.Fatalf("job = %+v, want needed=1 from 2 sources", jobs[0])
	}
}

func TestSessionTableLifecycle(t *testing.T) {
	st := newSessionTable(time.Minute)
	s := st.open("a.n1.t0", []proto.Stripe{{ID: "n1", Addr: "x"}}, 100, false, 2, 50, "")
	if s.id == 0 {
		t.Fatal("zero session id")
	}
	got, err := st.get(s.id)
	if err != nil || got != s {
		t.Fatalf("get: %v", err)
	}
	ids, err := st.extend(s.id, 25)
	if err != nil || len(ids) != 1 {
		t.Fatalf("extend: %v", err)
	}
	if s.perNode != 75 {
		t.Fatalf("perNode = %d, want 75", s.perNode)
	}
	closed, err := st.close(s.id)
	if err != nil || closed != s {
		t.Fatalf("close: %v", err)
	}
	if _, err := st.close(s.id); !errors.Is(err, core.ErrAlreadyCommitted) {
		t.Fatalf("double close: %v", err)
	}
	if _, err := st.get(s.id); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("get after close: %v", err)
	}
}

func TestSessionTableExpiry(t *testing.T) {
	st := newSessionTable(10 * time.Millisecond)
	st.open("a.n1.t0", nil, 100, false, 1, 10, "")
	st.open("b.n1.t0", nil, 100, false, 1, 10, "")
	if st.active() != 2 {
		t.Fatalf("active = %d", st.active())
	}
	dead := st.expire(time.Now().Add(time.Second))
	if len(dead) != 2 || st.active() != 0 {
		t.Fatalf("expired %d, active %d", len(dead), st.active())
	}
}

func TestPerNodeShare(t *testing.T) {
	tests := []struct {
		bytes int64
		width int
		want  int64
	}{
		{100, 4, 25},
		{101, 4, 26},
		{0, 4, 0},
		{100, 0, 0},
		{1, 8, 1},
	}
	for _, tt := range tests {
		if got := perNodeShare(tt.bytes, tt.width); got != tt.want {
			t.Errorf("perNodeShare(%d,%d) = %d, want %d", tt.bytes, tt.width, got, tt.want)
		}
	}
}

func TestPolicyTable(t *testing.T) {
	pt := newPolicyTable()
	if got := pt.get("nope"); got.Kind != core.PolicyNone {
		t.Fatalf("default policy = %v", got)
	}
	pt.set("a", core.Policy{Kind: core.PolicyPurge, PurgeAfter: time.Minute})
	pt.set("b", core.Policy{Kind: core.PolicyReplace})
	if folders := pt.enforcedFolders(); len(folders) != 1 {
		t.Fatalf("enforcedFolders = %v", folders)
	}
	// A retention schedule makes a folder background-enforced regardless
	// of its lifetime kind.
	pt.set("c", core.Policy{Kind: core.PolicyNone, Retention: core.Retention{KeepLast: 3}})
	if folders := pt.enforcedFolders(); len(folders) != 2 {
		t.Fatalf("enforcedFolders with retention = %v", folders)
	}
}
