package manager

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/metrics"
	"stdchk/internal/proto"
)

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, err := openJournal(path, false, false, nil, 0, new(metrics.Counters))
	if err != nil {
		t.Fatal(err)
	}
	chunks, total := commitChunks(50, 2, 10)
	entries := []journalEntry{
		{Op: "commit", Name: "j.n1.t0", Replication: 2, ChunkSize: 10, FileSize: total, Chunks: chunks},
		{Op: "policy", Name: "j", Policy: &core.Policy{Kind: core.PolicyReplace}},
		{Op: "delete", Name: "j.n1.t0"},
	}
	for _, e := range entries {
		if err := j.record(e, false); err != nil {
			t.Fatal(err)
		}
	}
	j.close()

	j2, err := openJournal(path, false, false, nil, 0, new(metrics.Counters))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(j2.entries) != 3 {
		t.Fatalf("read back %d entries, want 3", len(j2.entries))
	}
	if j2.entries[0].Op != "commit" || j2.entries[0].FileSize != total {
		t.Fatalf("entry 0 = %+v", j2.entries[0])
	}
	if j2.entries[1].Policy == nil || j2.entries[1].Policy.Kind != core.PolicyReplace {
		t.Fatalf("entry 1 = %+v", j2.entries[1])
	}
}

func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	j, err := openJournal(path, false, false, nil, 0, new(metrics.Counters))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(journalEntry{Op: "policy", Name: "x", Policy: &core.Policy{Kind: core.PolicyNone}}, false); err != nil {
		t.Fatal(err)
	}
	j.close()
	// Append a torn (half-written) record.
	appendFile(t, path, `{"op":"commit","name":"torn`)

	j2, err := openJournal(path, false, false, nil, 0, new(metrics.Counters))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.close()
	if len(j2.entries) != 1 {
		t.Fatalf("torn journal yielded %d entries, want the intact prefix of 1", len(j2.entries))
	}
}

func TestManagerJournalRestartRestoresCatalog(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "mgr.journal")

	m1, err := New(Config{JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a full write cycle directly against the handlers.
	m1.reg.register(regReq("n1", 1<<30), 0)
	alloc, err := m1.handleAlloc(proto.AllocReq{Name: "jr.n1.t0", StripeWidth: 1, ChunkSize: 10, ReserveBytes: 100})
	if err != nil {
		t.Fatal(err)
	}
	chunks, total := commitChunks(60, 3, 10)
	if _, err := m1.handleCommit(proto.CommitReq{
		WriteID:  alloc.Meta.(proto.AllocResp).WriteID,
		FileSize: total,
		Chunks:   chunks,
	}); err != nil {
		t.Fatal(err)
	}
	m1.Close()

	m2, err := New(Config{JournalPath: jpath})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	name, cm, err := m2.cat.getMap("jr.n1", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if name != "jr.n1.t0" || cm.FileSize != total || len(cm.Chunks) != 3 {
		t.Fatalf("restored map: name %q size %d chunks %d", name, cm.FileSize, len(cm.Chunks))
	}
}

func appendFile(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

func TestMapSignatureAndStripeWidth(t *testing.T) {
	chunks, total := commitChunks(70, 2, 10)
	cm := &core.ChunkMap{
		Version:   3,
		FileSize:  total,
		ChunkSize: 10,
		Chunks: []core.ChunkRef{
			{Index: 0, ID: chunks[0].ID, Size: 10},
			{Index: 1, ID: chunks[1].ID, Size: 10},
		},
		Locations: [][]core.NodeID{{"a", "b"}, {"b", "c"}},
	}
	sigA := mapSignature(cm)
	if sigA != mapSignature(cm.Clone()) {
		t.Fatal("identical maps produced different signatures")
	}
	other := cm.Clone()
	other.FileSize++
	if mapSignature(other) == sigA {
		t.Fatal("different maps collided")
	}
	if w := stripeWidth(cm); w != 3 {
		t.Fatalf("stripeWidth = %d, want 3 (a,b,c)", w)
	}
}

func TestRecoveryQuorumRule(t *testing.T) {
	rs := newRecoveryState()
	chunks, total := commitChunks(80, 2, 10)
	cm := &core.ChunkMap{
		Version:   1,
		FileSize:  total,
		ChunkSize: 10,
		Chunks: []core.ChunkRef{
			{Index: 0, ID: chunks[0].ID, Size: 10},
			{Index: 1, ID: chunks[1].ID, Size: 10},
		},
		Locations: [][]core.NodeID{{"a", "b", "c"}, {"a", "b", "c"}},
		CreatedAt: time.Now(),
	}
	// Width 3: quorum needs ceil(2/3*3) = 2 reporters.
	if q, _ := rs.add("f.n1.t0", cm, "a:1"); q {
		t.Fatal("quorum with a single reporter")
	}
	q, rep := rs.add("f.n1.t0", cm, "b:1")
	if !q {
		t.Fatal("no quorum with 2 of 3 reporters")
	}
	if len(rep.reporters) != 2 {
		t.Fatalf("reporters = %d", len(rep.reporters))
	}
	// Already-restored maps are not re-announced.
	if q, _ := rs.add("f.n1.t0", cm, "c:1"); q {
		t.Fatal("restored map reached quorum twice")
	}
	// Same reporter twice does not double-count.
	cm2 := cm.Clone()
	cm2.Version = 2
	rs.add("g.n1.t0", cm2, "a:1")
	if q, _ := rs.add("g.n1.t0", cm2, "a:1"); q {
		t.Fatal("duplicate reporter counted toward quorum")
	}
}

func TestCatalogRestoreIdempotentAndCounterSafe(t *testing.T) {
	c := newCatalog()
	chunks, total := commitChunks(90, 2, 10)
	cm := &core.ChunkMap{
		Dataset:   7,
		Version:   9,
		FileSize:  total,
		ChunkSize: 10,
		Chunks: []core.ChunkRef{
			{Index: 0, ID: chunks[0].ID, Size: 10},
			{Index: 1, ID: chunks[1].ID, Size: 10},
		},
		Locations: [][]core.NodeID{{"a"}, {"a", "b"}},
		CreatedAt: time.Now(),
	}
	if err := c.restore("r.n1.t0", cm); err != nil {
		t.Fatal(err)
	}
	if err := c.restore("r.n1.t0", cm); err != nil {
		t.Fatal(err)
	}
	ds, vs, uniq, logical, stored := c.counters()
	if ds != 1 || vs != 1 || uniq != 2 {
		t.Fatalf("after double restore: ds %d vs %d uniq %d", ds, vs, uniq)
	}
	if logical != total || stored != total {
		t.Fatalf("logical %d stored %d", logical, stored)
	}
	// New commits must not collide with restored IDs.
	moreChunks, moreTotal := commitChunks(91, 1, 10)
	_, ver2, _, err := c.commit("r.n1.t1", "r", 1, 10, false, moreTotal, moreChunks, "")
	if err != nil {
		t.Fatal(err)
	}
	if ver2 <= 9 {
		t.Fatalf("new version id %d not after restored id 9", ver2)
	}
	// Restored map still resolvable with locations intact.
	_, got, err := c.getMap("r.n1.t0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Locations[1]) != 2 {
		t.Fatalf("locations lost in restore: %v", got.Locations)
	}
}

func TestCatalogRestoreRejectsInvalidMap(t *testing.T) {
	c := newCatalog()
	bad := &core.ChunkMap{FileSize: 10, ChunkSize: 10} // no chunks but size 10
	if err := c.restore("bad.n1.t0", bad); err == nil {
		t.Fatal("invalid map restored")
	}
}

func ExampleConfig() {
	cfg := Config{}.withDefaults()
	fmt.Println(cfg.DefaultStripeWidth, cfg.DefaultReplication)
	// Output: 4 2
}
