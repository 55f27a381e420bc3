package manager

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/metrics"
	"stdchk/internal/proto"
)

// The tests in this file pin the ordered async journal writer's contract:
// ticket order is record order (so on a deterministic workload the file
// is byte-identical to the recorded entries written in order), replaying
// an async journal written under racing COW/dedup commits reconstructs
// exactly the live catalog's final state (in any stripe layout — the
// stripe-invariance harness extended to the async writer), and a clean
// Close drains every acknowledged entry before the file closes.

// driveSequentialJournal pushes a fixed, deterministic workload through a
// manager's handlers, with no concurrency. It returns the journal file the
// writer produced and a reference built beside it: every entry in the
// order it was recorded, numbered Seq 1..n and marshaled one per line —
// what a writer that appended each record inline would have written. The
// catalog's clock is pinned to a fixed sequence, so the recorded commit
// times are the same on every run.
func driveSequentialJournal(t testing.TB) (written, want []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seq.journal")
	m, err := New(Config{
		JournalPath:       path,
		HeartbeatInterval: time.Hour,
		SessionTTL:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recorded []journalEntry
	record := func(e journalEntry) error {
		recorded = append(recorded, e)
		return m.journalRecord(e)
	}
	m.cat.journalHook = record
	tick := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
	m.cat.now = func() time.Time {
		tick = tick.Add(time.Millisecond)
		return tick
	}
	m.reg.register(regReq("sq1", 1<<30), 0)
	for w := 0; w < 3; w++ {
		for ti := 0; ti < 4; ti++ {
			name := fmt.Sprintf("seq.n%d.t%d", w, ti)
			alloc, err := m.handleAlloc(proto.AllocReq{Name: name, StripeWidth: 1, ChunkSize: 512, ReserveBytes: 1024})
			if err != nil {
				t.Fatal(err)
			}
			chunks, total := commitChunks(int64(w*100+ti), 2, 512)
			if _, err := m.handleCommit(proto.CommitReq{
				WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := m.handleDelete(proto.DeleteReq{Name: "seq.n1.t2"}); err != nil {
		t.Fatal(err)
	}
	m.policies.set("seq", core.Policy{Kind: core.PolicyReplace, KeepVersions: 2})
	if err := record(journalEntry{Op: "policy", Name: "seq", Policy: &core.Policy{Kind: core.PolicyReplace, KeepVersions: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	written, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range recorded {
		e.Seq = uint64(i + 1)
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		want = append(append(want, b...), '\n')
	}
	return written, want
}

// TestAsyncJournalByteIdenticalToSync: on a deterministic sequential
// workload the ticket-ordered async writer must produce byte for byte
// the journal an inline, in-order append of every recorded entry would.
func TestAsyncJournalByteIdenticalToSync(t *testing.T) {
	written, want := driveSequentialJournal(t)
	if len(want) == 0 {
		t.Fatal("no journal entries were recorded")
	}
	if !bytes.Equal(written, want) {
		t.Fatalf("async journal diverged from the in-order reference:\nwant:    %s\nwritten: %s", want, written)
	}
}

// TestAsyncJournalReplayMatchesLiveState: racing COW/dedup commits and
// deletes journaled through the async writer must replay — in any stripe
// layout, including the single-lock reference — to exactly the live
// catalog's final state.
func TestAsyncJournalReplayMatchesLiveState(t *testing.T) {
	t.Run("async", func(t *testing.T) {
		journalPath, live := driveJournalWorkload(t, 8, 5)
		if len(live.Datasets) == 0 || len(live.Chunks) == 0 {
			t.Fatal("live workload produced an empty catalog")
		}
		for _, stripes := range []int{1, 16} {
			replayed := replayCatalogSnap(t, journalPath, stripes, false)
			if !reflect.DeepEqual(live, replayed) {
				t.Fatalf("journal replay with %d stripes diverged from live state:\nlive:     %+v\nreplayed: %+v",
					stripes, live, replayed)
			}
		}
	})
}

// versionIDs maps every committed file name to its version ID.
func versionIDs(c *catalog) map[string]core.VersionID {
	ids := make(map[string]core.VersionID)
	for _, sh := range c.ds {
		for _, ds := range sh.byName {
			for _, v := range ds.versions {
				ids[v.fileName] = v.id
			}
		}
	}
	return ids
}

// TestReplayReproducesVersionIDs: commits racing on different stripes
// must come back from the journal with the version IDs they had live —
// a journaled delete names its version by ID, so an ID that replay hands
// to a different version turns into a delete of the wrong checkpoint (or
// of none). Replay allocates IDs in ticket order; live allocation has to
// follow the same order, which it does by taking the ID in the same step
// as the ticket (journalEntry.ticketed).
func TestReplayReproducesVersionIDs(t *testing.T) {
	t.Run("async", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "ids.journal")
		cfg := Config{JournalPath: path, HeartbeatInterval: time.Hour, SessionTTL: time.Hour}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.reg.register(regReq("n1", 1<<40), 0)
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for ti := 0; ti < 40; ti++ {
					name := fmt.Sprintf("ids.n%d.t%d", w, ti)
					alloc, err := m.handleAlloc(proto.AllocReq{Name: name, StripeWidth: 1, ChunkSize: 512, ReserveBytes: 512})
					if err != nil {
						t.Error(err)
						return
					}
					chunks, total := commitChunks(int64(w*1000+ti), 1, 512)
					if _, err := m.handleCommit(proto.CommitReq{
						WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
					}); err != nil {
						t.Error(err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		live := versionIDs(m.cat)
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if len(live) != 8*40 {
			t.Fatalf("%d versions committed, want %d", len(live), 8*40)
		}
		m2, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m2.Close()
		if replayed := versionIDs(m2.cat); !reflect.DeepEqual(replayed, live) {
			moved := 0
			for name, id := range live {
				if replayed[name] != id {
					moved++
				}
			}
			t.Fatalf("%d of %d versions changed ID across replay", moved, len(live))
		}
	})
}

// TestAsyncJournalCloseDrains: every commit acknowledged before Close
// must be on disk after Close returns — the writer goroutine drains its
// queue and flushes before the file closes, whatever the backlog.
func TestAsyncJournalCloseDrains(t *testing.T) {
	path := filepath.Join(t.TempDir(), "drain.journal")
	m, err := New(Config{
		JournalPath:       path,
		HeartbeatInterval: time.Hour,
		SessionTTL:        time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.reg.register(regReq("dr1", 1<<30), 0)
	const commits = 500
	for i := 0; i < commits; i++ {
		name := fmt.Sprintf("drain.n%d.t0", i)
		alloc, err := m.handleAlloc(proto.AllocReq{Name: name, StripeWidth: 1, ChunkSize: 256, ReserveBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		chunks, total := commitChunks(int64(i), 1, 256)
		if _, err := m.handleCommit(proto.CommitReq{
			WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Close immediately: the writer goroutine may still hold a large
	// backlog of acknowledged entries.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := readJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != commits {
		t.Fatalf("journal holds %d entries after Close, want %d acknowledged commits", len(entries), commits)
	}
	// Ticket order on disk: this workload commits drain.nI sequentially,
	// so the journal must list them in commit order.
	for i, e := range entries {
		if want := fmt.Sprintf("drain.n%d.t0", i); e.Name != want {
			t.Fatalf("entry %d is %q, want %q (ticket order violated)", i, e.Name, want)
		}
	}
	// A replacement manager must see every version.
	m2, err := New(Config{JournalPath: path, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := counter(t, m2.Stats(), "catalog.versions"); got != commits {
		t.Fatalf("replay after drained close restored %d versions, want %d", got, commits)
	}
}

// TestAsyncJournalRecordAfterClose: a record attempted after close must
// report ErrClosed, not hang or panic against the closed queue.
func TestAsyncJournalRecordAfterClose(t *testing.T) {
	j, _, err := openJournal(filepath.Join(t.TempDir(), "c.journal"), false, nil, 0, new(metrics.Counters))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.record(journalEntry{Op: "policy", Name: "x", Policy: &core.Policy{}}, false); err != nil {
		t.Fatal(err)
	}
	j.close()
	if err := j.record(journalEntry{Op: "policy", Name: "y", Policy: &core.Policy{}}, false); !errors.Is(err, core.ErrClosed) {
		t.Fatalf("record after close returned %v, want ErrClosed", err)
	}
	// close is idempotent.
	j.close()
}

// TestDurabilityFsyncFolderEscalatesCommits pins the per-folder fsync tier
// on a journaled manager whose journal does not fsync (FsyncJournal off):
// a commit into a DurabilityFsync folder is fsynced before it is
// acknowledged and a commit into a default folder is not; and when that
// fsync fails, the durable folder's commit fails unacknowledged while the
// default folder's commit, which asks for no fsync, still succeeds.
func TestDurabilityFsyncFolderEscalatesCommits(t *testing.T) {
	defer faultpoint.Reset()
	m, _ := newJournaledManager(t, t.TempDir(), false)
	defer m.Close()
	if err := m.Invoke(proto.MPolicySet, proto.PolicySetReq{
		Folder: "durable", Policy: core.Policy{Kind: core.PolicyNone, Durability: core.DurabilityFsync},
	}, nil); err != nil {
		t.Fatal(err)
	}
	commit := func(name string, seed int) error {
		var alloc proto.AllocResp
		if err := m.Invoke(proto.MAlloc, proto.AllocReq{
			Name: name, StripeWidth: 1, ChunkSize: 1 << 10, ReserveBytes: 4 << 10, Replication: 1,
		}, &alloc); err != nil {
			return err
		}
		chunks, total := commitChunks(int64(seed), 4, 1<<10)
		for i := range chunks {
			chunks[i].Locations = []core.NodeID{alloc.Stripe[0].ID}
		}
		return m.Invoke(proto.MCommit, proto.CommitReq{WriteID: alloc.WriteID, FileSize: total, Chunks: chunks}, nil)
	}
	fsyncsAfter := func(name string, seed int) int64 {
		t.Helper()
		before := m.Stats().JournalFsyncs
		if err := commit(name, seed); err != nil {
			t.Fatalf("commit %s: %v", name, err)
		}
		return m.Stats().JournalFsyncs - before
	}
	if d := fsyncsAfter("plain.n1.t0", 1); d != 0 {
		t.Fatalf("commit in a default folder fsynced the journal %d times, want 0", d)
	}
	if d := fsyncsAfter("durable.n1.t0", 2); d < 1 {
		t.Fatal("commit in a DurabilityFsync folder was acknowledged without an fsync")
	}

	if err := faultpoint.Enable("manager.journal.fsync", faultpoint.Config{Mode: faultpoint.ModeError}); err != nil {
		t.Fatal(err)
	}
	if err := commit("plain.n1.t1", 3); err != nil {
		t.Fatalf("default-folder commit failed with the fsync faultpoint armed: %v", err)
	}
	if err := commit("durable.n1.t1", 4); err == nil {
		t.Fatal("DurabilityFsync commit acknowledged although its fsync failed")
	}
	if _, _, err := m.cat.getMap("durable.n1.t1", 0, 0); err == nil {
		t.Fatal("the failed durable commit is visible in the catalog")
	}
}
