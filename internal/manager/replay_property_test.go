package manager

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// The tests in this file pin the crash-consistency contract of the
// striped catalog: however the metadata plane is striped, (a) replaying
// the same journal must rebuild byte-identical metadata, including after
// a torn final record from a mid-commit crash, and (b) concurrent commits
// on distinct datasets must converge to exactly the state a single-lock
// catalog reaches applying the same commits sequentially.

// catSnap is a canonical, shard-layout-independent image of a catalog.
type catSnap struct {
	Datasets map[string]dsSnap
	Chunks   map[core.ChunkID]ckSnap
	Logical  int64
	Stored   int64
}

type dsSnap struct {
	Folder      string
	Replication int
	Versions    []verSnap
}

type verSnap struct {
	ID          core.VersionID
	FileName    string
	FileSize    int64
	ChunkSize   int64
	Variable    bool
	NewBytes    int64
	CommittedAt int64 // Unix nanoseconds: location and monotonic reading dropped
	Writer      string
	Chunks      []core.ChunkRef
}

type ckSnap struct {
	Size    int64
	Refs    int
	Pending int // must be 0 in any quiescent catalog
	Locs    string
}

// snapshotCatalog walks a quiescent catalog into canonical form.
// withNewBytes excludes per-version newBytes accounting when the caller
// compares runs whose interleaving legitimately reorders which version
// first stored a cross-dataset shared chunk.
func snapshotCatalog(c *catalog, withNewBytes bool) catSnap {
	s := catSnap{
		Datasets: make(map[string]dsSnap),
		Chunks:   make(map[core.ChunkID]ckSnap),
		Logical:  c.logicalBytes.Load(),
		Stored:   c.storedBytes.Load(),
	}
	for _, sh := range c.ds {
		for name, ds := range sh.byName {
			d := dsSnap{Folder: ds.folder, Replication: ds.replication}
			versions := append([]*version(nil), ds.versions...)
			sort.Slice(versions, func(i, j int) bool { return versions[i].fileName < versions[j].fileName })
			for _, v := range versions {
				vs := verSnap{
					ID:          v.id,
					FileName:    v.fileName,
					FileSize:    v.fileSize,
					ChunkSize:   v.chunkSize,
					Variable:    v.variable,
					CommittedAt: v.committedAt.UnixNano(),
					Writer:      v.writer,
					Chunks:      append([]core.ChunkRef(nil), v.chunks...),
				}
				if withNewBytes {
					vs.NewBytes = v.newBytes
				}
				d.Versions = append(d.Versions, vs)
			}
			s.Datasets[name] = d
		}
	}
	for _, sh := range c.ck {
		for id, e := range sh.chunks {
			locs := make([]string, 0, len(e.locations))
			for n := range e.locations {
				locs = append(locs, string(n))
			}
			sort.Strings(locs)
			s.Chunks[id] = ckSnap{Size: e.size, Refs: e.refs, Pending: e.pending, Locs: strings.Join(locs, ",")}
		}
	}
	return s
}

func propChunkID(writer, t, j int, stable bool) core.ChunkID {
	var b [16]byte
	binary.BigEndian.PutUint32(b[0:4], uint32(writer))
	binary.BigEndian.PutUint32(b[4:8], uint32(j))
	if !stable {
		binary.BigEndian.PutUint64(b[8:16], uint64(t)+1)
	}
	return core.HashChunk(b[:])
}

// driveJournalWorkload runs concurrent writers against a journal-backed
// manager through the real handler path: per writer a chain of versions
// with copy-on-write chunk reuse, plus deletes and a folder policy, all
// journaled. Returns the journal path and the live catalog's quiescent
// snapshot (newBytes excluded: which racing commit first stores a shared
// chunk is interleaving-dependent), taken before Close drains the journal.
func driveJournalWorkload(t *testing.T, writers, versions int) (string, catSnap) {
	t.Helper()
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "manager.journal")
	m, err := newManager(Config{
		JournalPath:       journalPath,
		HeartbeatInterval: time.Hour,
		SessionTTL:        time.Hour,
	}, defaultStripes)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 0; i < 4; i++ {
		req := proto.RegisterReq{
			ID:   core.NodeID(fmt.Sprintf("jn%d:1", i)),
			Addr: fmt.Sprintf("jn%d:1", i), Capacity: 1 << 40, Free: 1 << 40,
		}
		if err := m.Invoke(proto.MRegister, req, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Invoke(proto.MPolicySet, proto.PolicySetReq{
		Folder: "jw", Policy: core.Policy{Kind: core.PolicyReplace, KeepVersions: versions},
	}, nil); err != nil {
		t.Fatal(err)
	}

	const chunksPer = 8
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ti := 0; ti < versions; ti++ {
				name := fmt.Sprintf("jw.n%d.t%d", w, ti)
				var alloc proto.AllocResp
				if err := m.Invoke(proto.MAlloc, proto.AllocReq{
					Name: name, StripeWidth: 2, ChunkSize: 1 << 10,
					Variable: w%2 == 1, ReserveBytes: chunksPer << 10, Replication: 1,
				}, &alloc); err != nil {
					errCh <- err
					return
				}
				locs := make([]core.NodeID, 0, len(alloc.Stripe))
				for _, st := range alloc.Stripe {
					locs = append(locs, st.ID)
				}
				chunks := make([]proto.CommitChunk, chunksPer)
				var fileSize int64
				for j := range chunks {
					stable := j < chunksPer/2
					id := propChunkID(w, ti, j, stable)
					if j == chunksPer-1 {
						// One chunk shared across ALL writers: the
						// cross-shard COW stress case.
						id = propChunkID(-1, 0, 0, true)
					}
					chunks[j] = proto.CommitChunk{ID: id, Size: 1 << 10}
					if !stable || ti == 0 || j == chunksPer-1 {
						chunks[j].Locations = locs
					}
					fileSize += 1 << 10
				}
				if err := m.Invoke(proto.MCommit, proto.CommitReq{
					WriteID: alloc.WriteID, FileSize: fileSize, Chunks: chunks,
				}, nil); err != nil {
					errCh <- fmt.Errorf("commit %s: %w", name, err)
					return
				}
			}
			if w%3 == 0 {
				// Deletes interleave with other writers' commits.
				if err := m.Invoke(proto.MDelete, proto.DeleteReq{
					Name: fmt.Sprintf("jw.n%d.t0", w),
				}, nil); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	return journalPath, snapshotCatalog(m.cat, false)
}

// replayCatalog rebuilds a catalog from a journal file with the given
// stripe count, returning its snapshot.
func replayCatalog(t *testing.T, journalPath string, stripes int) catSnap {
	t.Helper()
	return replayCatalogSnap(t, journalPath, stripes, true)
}

// replayCatalogSnap is replayCatalog with the newBytes comparison made
// optional (live-vs-replay comparisons exclude it; see
// driveJournalWorkload).
func replayCatalogSnap(t *testing.T, journalPath string, stripes int, withNewBytes bool) catSnap {
	t.Helper()
	m, err := newManager(Config{
		JournalPath:       journalPath,
		HeartbeatInterval: time.Hour,
	}, stripes)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	return snapshotCatalog(m.cat, withNewBytes)
}

// TestJournalReplayStripeInvariance: replaying one journal into catalogs
// with different stripe counts — including the single-lock reference
// (stripes=1) — must produce identical metadata.
func TestJournalReplayStripeInvariance(t *testing.T) {
	journalPath, _ := driveJournalWorkload(t, 8, 5)
	ref := replayCatalog(t, journalPath, 1)
	if len(ref.Datasets) == 0 || len(ref.Chunks) == 0 {
		t.Fatal("reference replay rebuilt an empty catalog")
	}
	for _, stripes := range []int{4, 16, 64} {
		got := replayCatalog(t, journalPath, stripes)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("replay with %d stripes diverged from single-lock reference:\nref: %+v\ngot: %+v",
				stripes, ref, got)
		}
	}
}

// TestJournalReplayTornRecord simulates a manager crash mid-append (the
// kill-mid-commit case): the journal is cut at arbitrary byte offsets,
// leaving a torn final record. Every stripe variant must replay the same
// intact prefix and ignore the torn tail.
func TestJournalReplayTornRecord(t *testing.T) {
	journalPath, _ := driveJournalWorkload(t, 6, 4)
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(raw) - 3, len(raw) / 2, len(raw) / 7} {
		if cut <= 0 {
			continue
		}
		torn := filepath.Join(t.TempDir(), "torn.journal")
		if err := os.WriteFile(torn, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ref := replayCatalog(t, torn, 1)
		got := replayCatalog(t, torn, 16)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("torn journal (cut %d/%d): striped replay diverged from single-lock reference", cut, len(raw))
		}
		// Exactly the intact prefix must be applied: versions = complete
		// commit records minus complete delete records (each delete in
		// this workload removes one version committed earlier in the same
		// writer's sequence, so journal order guarantees its target is in
		// the prefix too).
		entries, err := readJournal(torn)
		if err != nil {
			t.Fatal(err)
		}
		wantVersions := 0
		for _, e := range entries {
			switch e.Op {
			case "commit":
				wantVersions++
			case "delete":
				wantVersions--
			}
		}
		gotVersions := 0
		for _, d := range got.Datasets {
			gotVersions += len(d.Versions)
		}
		if gotVersions != wantVersions {
			t.Fatalf("torn replay (cut %d/%d) has %d versions, journal prefix implies %d",
				cut, len(raw), gotVersions, wantVersions)
		}
	}
}

// TestConcurrentCommitsMatchSingleLockReference: concurrent commits on
// distinct datasets (with one chunk shared by every writer) applied to a
// striped catalog must converge to the state the single-lock catalog
// reaches applying the same commits sequentially. Per-version newBytes and
// version IDs are excluded: which version first stores a cross-dataset
// shared chunk, and which commit draws which ID, are interleaving-dependent
// by design; the aggregate byte accounting is not. Both catalogs read one
// pinned clock.
func TestConcurrentCommitsMatchSingleLockReference(t *testing.T) {
	const writers, versions, chunksPer = 12, 4, 6
	type commitArgs struct {
		name   string
		chunks []proto.CommitChunk
		size   int64
	}
	plan := make([][]commitArgs, writers)
	for w := 0; w < writers; w++ {
		for ti := 0; ti < versions; ti++ {
			chunks := make([]proto.CommitChunk, chunksPer)
			var size int64
			for j := range chunks {
				stable := j < chunksPer/2
				id := propChunkID(w, ti, j, stable)
				if j == chunksPer-1 {
					id = propChunkID(-1, 0, 0, true)
				}
				chunks[j] = proto.CommitChunk{ID: id, Size: 512}
				if !stable || ti == 0 || j == chunksPer-1 {
					chunks[j].Locations = []core.NodeID{core.NodeID(fmt.Sprintf("cn%d:1", w%3))}
				}
				size += 512
			}
			plan[w] = append(plan[w], commitArgs{
				name: fmt.Sprintf("cc.n%d.t%d", w, ti), chunks: chunks, size: size,
			})
		}
	}

	pinned := func() time.Time { return time.Unix(1_700_000_000, 0) }
	striped := newCatalogStripes(16)
	striped.now = pinned
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, ca := range plan[w] {
				if _, _, _, err := striped.commit(ca.name, "cc", 1, 512, false, ca.size, ca.chunks, ""); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	ref := newCatalogStripes(1)
	ref.now = pinned
	for w := 0; w < writers; w++ {
		for _, ca := range plan[w] {
			if _, _, _, err := ref.commit(ca.name, "cc", 1, 512, false, ca.size, ca.chunks, ""); err != nil {
				t.Fatal(err)
			}
		}
	}

	got := snapshotCatalog(striped, false)
	want := snapshotCatalog(ref, false)
	for _, s := range []catSnap{got, want} {
		for _, ds := range s.Datasets {
			for i := range ds.Versions {
				ds.Versions[i].ID = 0
			}
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("concurrent striped commits diverged from sequential single-lock reference:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestJournalOrderRespectsCOWCausality: writers race to upload-or-reuse
// the same content (probe hasChunks, then commit the chunk either with
// locations or as a copy-on-write reference), the realistic dedup shape.
// Because the catalog journals inside the dataset stripe's critical
// section BEFORE the chunks become probe-visible, a COW commit can never
// precede its chunk's uploading commit in the journal — so replay must
// always succeed. Before the journal hook, handler-level journaling could
// invert that order and brick the manager on restart.
func TestJournalOrderRespectsCOWCausality(t *testing.T) {
	dir := t.TempDir()
	journalPath := filepath.Join(dir, "cow.journal")
	m, err := New(Config{
		JournalPath:       journalPath,
		HeartbeatInterval: time.Hour,
		SessionTTL:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		req := proto.RegisterReq{
			ID:   core.NodeID(fmt.Sprintf("cw%d:1", i)),
			Addr: fmt.Sprintf("cw%d:1", i), Capacity: 1 << 40, Free: 1 << 40,
		}
		if err := m.Invoke(proto.MRegister, req, nil); err != nil {
			t.Fatal(err)
		}
	}
	const writers, rounds = 8, 20
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// All writers contend on the same content per round.
				id := propChunkID(-2, r, 0, true)
				name := fmt.Sprintf("cow.n%d.t%d", w, r)
				var alloc proto.AllocResp
				if err := m.Invoke(proto.MAlloc, proto.AllocReq{
					Name: name, StripeWidth: 1, ChunkSize: 256, ReserveBytes: 256, Replication: 1,
				}, &alloc); err != nil {
					errCh <- err
					return
				}
				var has proto.HasResp
				if err := m.Invoke(proto.MHasChunks, proto.HasReq{IDs: []core.ChunkID{id}}, &has); err != nil {
					errCh <- err
					return
				}
				ch := proto.CommitChunk{ID: id, Size: 256}
				if !has.Present[0] {
					ch.Locations = []core.NodeID{core.NodeID(alloc.Stripe[0].ID)}
				}
				err := m.Invoke(proto.MCommit, proto.CommitReq{
					WriteID: alloc.WriteID, FileSize: 256, Chunks: []proto.CommitChunk{ch},
				}, nil)
				if err != nil {
					// A COW commit may race a concurrent DELETE of the
					// chunk's last reference in other tests' workloads —
					// not in this one: no deletes here, so any error is a
					// causality violation.
					errCh <- fmt.Errorf("writer %d round %d: %w", w, r, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// The journal must replay cleanly into any stripe layout.
	for _, stripes := range []int{1, 16} {
		m2, err := newManager(Config{
			JournalPath:       journalPath,
			HeartbeatInterval: time.Hour,
		}, stripes)
		if err != nil {
			t.Fatalf("replay with %d stripes: %v", stripes, err)
		}
		m2.Close()
	}
}

// TestJournalReplayToleratesDeleteCommitInversion: live, a copy-on-write
// commit's pending reference can keep a chunk alive across a concurrent
// delete on another stripe, and the delete may reach the journal first.
// The sequential journal cannot express that overlap, so replay must
// re-create the referenced entry instead of refusing to start.
func TestJournalReplayToleratesDeleteCommitInversion(t *testing.T) {
	x := core.HashChunk([]byte("inverted"))
	entries := []journalEntry{
		{Op: "commit", Name: "inv.nA.t0", Replication: 1, ChunkSize: 64, FileSize: 64,
			Chunks: []proto.CommitChunk{{ID: x, Size: 64, Locations: []core.NodeID{"n1"}}}},
		{Op: "delete", Name: "inv.nA.t0"},
		{Op: "commit", Name: "inv.nB.t0", Replication: 1, ChunkSize: 64, FileSize: 64,
			Chunks: []proto.CommitChunk{{ID: x, Size: 64}}}, // COW, journaled after the delete
	}
	journalPath := filepath.Join(t.TempDir(), "inv.journal")
	f, err := os.Create(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(f)
	for _, e := range entries {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, stripes := range []int{1, 16} {
		// Fresh copy per iteration: the live delete below appends to the
		// journal, which must not leak into the next replay.
		iterPath := filepath.Join(t.TempDir(), "inv.journal")
		if err := os.WriteFile(iterPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := newManager(Config{
			JournalPath:       iterPath,
			HeartbeatInterval: time.Hour,
		}, stripes)
		if err != nil {
			t.Fatalf("replay with %d stripes refused the inverted journal: %v", stripes, err)
		}
		if _, _, err := m.cat.getMap("inv.nB", 0, 0); err != nil {
			t.Fatalf("replay with %d stripes lost B's version: %v", stripes, err)
		}
		if !m.cat.referenced(x) {
			t.Fatalf("replay with %d stripes lost the shared chunk reference", stripes)
		}
		// Byte accounting must balance for the re-created entry: credited
		// at replay, debited when its last reference dies — never negative.
		if _, _, _, _, stored := m.cat.counters(); stored != 64 {
			t.Fatalf("replay with %d stripes: storedBytes %d, want 64", stripes, stored)
		}
		if _, err := m.cat.deleteVersion("inv.nB", 0); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, stored := m.cat.counters(); stored != 0 {
			t.Fatalf("after deleting the re-created chunk's last reference: storedBytes %d, want 0", stored)
		}
		// Live COW validation must stay strict after replay ends.
		ghost := []proto.CommitChunk{{ID: core.HashChunk([]byte("ghost")), Size: 64}}
		if _, _, _, err := m.cat.commit("inv.nC.t0", "inv", 1, 64, false, 64, ghost, ""); err == nil {
			t.Fatal("lenient COW validation leaked out of replay mode")
		}
		m.Close()
	}
}

// TestPendingReferencesInvisibleUntilPublished: chunks charged by an
// in-flight commit must not be reported stored by dedup probes, nor
// accepted as copy-on-write references, until the commit publishes and
// confirms them — otherwise a peer could build a version on chunks whose
// commit later rolls back.
func TestPendingReferencesInvisibleUntilPublished(t *testing.T) {
	c := newCatalogStripes(16)
	id := core.HashChunk([]byte("in-flight"))
	charges := []chunkCharge{{
		id: id, size: 64, locs: []core.NodeID{"n1"}, countNew: true,
	}}
	if _, err := c.chargeChunks("pend.n1.t0", charges); err != nil {
		t.Fatal(err)
	}
	if got := c.hasChunks([]core.ChunkID{id}); got[0] {
		t.Fatal("pending (unpublished) chunk visible to dedup probe")
	}
	// A COW commit against the pending chunk must be rejected.
	cow := []proto.CommitChunk{{ID: id, Size: 64}}
	if _, _, _, err := c.commit("peer.n1.t0", "peer", 1, 64, false, 64, cow, ""); err == nil {
		t.Fatal("copy-on-write reference to an unpublished chunk accepted")
	}
	// GC must still protect the in-flight upload.
	if !c.referenced(id) {
		t.Fatal("pending chunk not protected from GC")
	}
	c.confirmChunks(charges)
	if got := c.hasChunks([]core.ChunkID{id}); !got[0] {
		t.Fatal("confirmed chunk invisible to dedup probe")
	}
	if _, _, _, err := c.commit("peer.n1.t0", "peer", 1, 64, false, 64, cow, ""); err != nil {
		t.Fatalf("copy-on-write reference to a published chunk rejected: %v", err)
	}
}

// TestCatalogCommitRollbackOnBadSharedChunk: a commit that fails
// validation mid-charge (unknown copy-on-write chunk after valid new
// chunks) must leave no trace — no references, no stored bytes, no
// version.
func TestCatalogCommitRollbackOnBadSharedChunk(t *testing.T) {
	c := newCatalogStripes(16)
	good, total := commitChunks(77, 3, 64)
	if _, _, _, err := c.commit("rb.n1.t0", "rb", 1, 64, false, total, good, ""); err != nil {
		t.Fatal(err)
	}
	before := snapshotCatalog(c, true)

	bad := []proto.CommitChunk{
		{ID: core.HashChunk([]byte("fresh-a")), Size: 64, Locations: []core.NodeID{"n1"}},
		{ID: good[0].ID, Size: 64},                             // valid COW reference
		{ID: core.HashChunk([]byte("never-stored")), Size: 64}, // unknown COW -> fail
	}
	if _, _, _, err := c.commit("rb.n1.t1", "rb", 1, 64, false, 3*64, bad, ""); err == nil {
		t.Fatal("commit with unknown shared chunk accepted")
	}
	after := snapshotCatalog(c, true)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("failed commit mutated the catalog:\nbefore: %+v\nafter:  %+v", before, after)
	}
}

// commitTimes maps every committed file name to its commit time.
func commitTimes(c *catalog) map[string]time.Time {
	out := make(map[string]time.Time)
	for _, sh := range c.ds {
		for _, ds := range sh.byName {
			for _, v := range ds.versions {
				out[v.fileName] = v.committedAt
			}
		}
	}
	return out
}

// TestJournalRestartKeepsCommitTimes: a manager restarted from its journal
// alone must bring every version back with the instant it was committed,
// not the instant of the restart — as-of opens, history and age-based
// retention all read that time, and a snapshot restart already keeps it.
func TestJournalRestartKeepsCommitTimes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "times.journal")
	cfg := Config{JournalPath: path, HeartbeatInterval: time.Hour, SessionTTL: time.Hour}
	m, err := newManager(cfg, defaultStripes)
	if err != nil {
		t.Fatal(err)
	}
	m.reg.register(regReq("ct1", 1<<30), 0)
	for ti := 0; ti < 3; ti++ {
		name := fmt.Sprintf("ct.n1.t%d", ti)
		alloc, err := m.handleAlloc(proto.AllocReq{Name: name, StripeWidth: 1, ChunkSize: 512, ReserveBytes: 1024})
		if err != nil {
			t.Fatal(err)
		}
		chunks, total := commitChunks(int64(ti), 2, 512)
		if _, err := m.handleCommit(proto.CommitReq{
			WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
		}); err != nil {
			t.Fatal(err)
		}
	}
	live := commitTimes(m.cat)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // a restart later than every commit

	m2, err := newManager(cfg, defaultStripes)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	replayed := commitTimes(m2.cat)
	if len(replayed) != len(live) {
		t.Fatalf("replay rebuilt %d versions, want %d", len(replayed), len(live))
	}
	for name, at := range live {
		if got := replayed[name]; !got.Equal(at) {
			t.Errorf("%s: replayed commit time %v, committed at %v", name, got, at)
		}
	}
	// An as-of open at the first commit's instant resolves that version.
	file, _, _, err := m2.cat.statVersion("ct.n1", live["ct.n1.t0"])
	if err != nil || file != "ct.n1.t0" {
		t.Fatalf("as-of %v after restart resolved %q, %v; want ct.n1.t0", live["ct.n1.t0"], file, err)
	}
}
