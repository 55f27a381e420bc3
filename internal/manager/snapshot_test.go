package manager

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/proto"
)

// newJournaledManager starts a manager on a fresh journal for snapshot
// tests, with benefactors registered so the real alloc/commit handler path
// works.
func newJournaledManager(t *testing.T, dir string, syncJournal, fsyncJournal bool) (*Manager, string) {
	t.Helper()
	journalPath := filepath.Join(dir, "manager.journal")
	m, err := newManager(Config{
		JournalPath:       journalPath,
		FsyncJournal:      fsyncJournal,
		HeartbeatInterval: time.Hour,
		SessionTTL:        time.Hour,
	}, defaultStripes, syncJournal)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		req := proto.RegisterReq{
			ID:   core.NodeID(fmt.Sprintf("sn%d:1", i)),
			Addr: fmt.Sprintf("sn%d:1", i), Capacity: 1 << 40, Free: 1 << 40,
		}
		if err := m.Invoke(proto.MRegister, req, nil); err != nil {
			t.Fatal(err)
		}
	}
	return m, journalPath
}

// commitFile pushes one file through the real alloc/commit handler path.
func commitFile(t *testing.T, m *Manager, name string, seed, n int) {
	t.Helper()
	var alloc proto.AllocResp
	if err := m.Invoke(proto.MAlloc, proto.AllocReq{
		Name: name, StripeWidth: 2, ChunkSize: 1 << 10, ReserveBytes: int64(n) << 10, Replication: 1,
	}, &alloc); err != nil {
		t.Fatalf("alloc %s: %v", name, err)
	}
	locs := make([]core.NodeID, 0, len(alloc.Stripe))
	for _, st := range alloc.Stripe {
		locs = append(locs, st.ID)
	}
	chunks, total := commitChunks(int64(seed), n, 1<<10)
	for i := range chunks {
		chunks[i].Locations = locs
	}
	if err := m.Invoke(proto.MCommit, proto.CommitReq{
		WriteID: alloc.WriteID, FileSize: total, Chunks: chunks,
	}, nil); err != nil {
		t.Fatalf("commit %s: %v", name, err)
	}
}

// TestSnapshotRecoveryEquivalentToFullReplay is the replay-equivalence
// property extended to snapshots: a random commit/delete stream with
// snapshots taken at random ticket positions must recover byte-identical
// to a full-journal replay of the same history — in the async journal, the
// async+group-commit-fsync journal, and the historical sync journal.
func TestSnapshotRecoveryEquivalentToFullReplay(t *testing.T) {
	modes := []struct {
		name        string
		sync, fsync bool
	}{
		{"async", false, false},
		{"async+fsync", false, true},
		{"sync", true, false},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			m, journalPath := newJournaledManager(t, dir, mode.sync, mode.fsync)
			if err := m.Invoke(proto.MPolicySet, proto.PolicySetReq{
				Folder: "sw", Policy: core.Policy{Kind: core.PolicyNone},
			}, nil); err != nil {
				t.Fatal(err)
			}
			// Interleave commits, deletes, and snapshots: snapshots land at
			// "random" ticket positions determined by the stream below.
			// snapshotOnce(false) leaves the journal whole, so the exact
			// same history supports both recovery paths.
			seq := 0
			for round := 0; round < 6; round++ {
				for w := 0; w < 4; w++ {
					commitFile(t, m, fmt.Sprintf("sw.n%d.t%d", w, round), 100+10*w+round, 6)
					seq++
				}
				if round%2 == 1 {
					if err := m.Invoke(proto.MDelete, proto.DeleteReq{
						Name: fmt.Sprintf("sw.n%d.t%d", round%4, round-1),
					}, nil); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := m.snapshotOnce(false); err != nil {
					t.Fatal(err)
				}
			}
			live := snapshotCatalog(m.cat, false)
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}

			// Recovery path A: newest snapshot + journal suffix.
			mA, err := New(Config{JournalPath: journalPath, HeartbeatInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			snapA := snapshotCatalog(mA.cat, false)
			stA := mA.Stats()
			mA.Close()

			// Recovery path B: the same journal with every snapshot file
			// removed — a full replay from entry one.
			entries, err := readJournal(journalPath)
			if err != nil {
				t.Fatal(err)
			}
			snaps, err := listSnapshots(journalPath)
			if err != nil {
				t.Fatal(err)
			}
			if len(snaps) == 0 {
				t.Fatal("no snapshot files written")
			}
			for _, p := range snaps {
				if err := os.Remove(p); err != nil {
					t.Fatal(err)
				}
			}
			mB, err := New(Config{JournalPath: journalPath, HeartbeatInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			snapB := snapshotCatalog(mB.cat, false)
			stB := mB.Stats()
			mB.Close()

			if !reflect.DeepEqual(snapA, snapB) {
				t.Fatalf("snapshot recovery diverged from full replay:\nsnapshot: %+v\nreplay:   %+v", snapA, snapB)
			}
			if !reflect.DeepEqual(snapA, live) {
				t.Fatalf("recovery diverged from the live pre-shutdown catalog:\nrecovered: %+v\nlive:      %+v", snapA, live)
			}
			if stB.JournalReplayed != int64(len(entries)) {
				t.Fatalf("full replay applied %d of %d entries", stB.JournalReplayed, len(entries))
			}
			if stA.JournalReplayed >= stB.JournalReplayed {
				t.Fatalf("snapshot recovery replayed %d entries, full replay %d — the watermark skipped nothing",
					stA.JournalReplayed, stB.JournalReplayed)
			}
			if stA.SnapshotSeq == 0 {
				t.Fatal("snapshot recovery reported no watermark")
			}
		})
	}
}

// TestSnapshotTruncationBoundsRestart: Snapshot() (the production
// entrypoint) must truncate the journal, and recovery from snapshot +
// truncated suffix must reproduce the live catalog exactly.
func TestSnapshotTruncationBoundsRestart(t *testing.T) {
	dir := t.TempDir()
	// Group-commit fsync mode: commits block until their batch is on disk,
	// so journal file sizes are deterministic at every measurement point.
	m, journalPath := newJournaledManager(t, dir, false, true)
	for i := 0; i < 12; i++ {
		commitFile(t, m, fmt.Sprintf("tb.n%d.t0", i), 200+i, 8)
	}
	preSize := fileSize(t, journalPath)
	w1, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if w1 == 0 {
		t.Fatal("snapshot watermark 0 after 12 commits")
	}
	// Lag-one truncation: the first snapshot has no predecessor, so the
	// journal survives whole; the second truncates to the first's
	// watermark.
	if got := fileSize(t, journalPath); got != preSize {
		t.Fatalf("first snapshot truncated the journal (%d -> %d bytes); truncation must lag one snapshot", preSize, got)
	}
	for i := 0; i < 4; i++ {
		commitFile(t, m, fmt.Sprintf("tb.n%d.t1", i), 300+i, 8)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, journalPath); got >= preSize {
		t.Fatalf("second snapshot did not truncate the journal (%d bytes, pre-snapshot %d)", got, preSize)
	}
	commitFile(t, m, "tb.n0.t2", 400, 8)
	live := snapshotCatalog(m.cat, false)
	st := m.Stats()
	if st.Snapshots != 2 {
		t.Fatalf("Snapshots stat = %d, want 2", st.Snapshots)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Config{JournalPath: journalPath, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := snapshotCatalog(m2.cat, false); !reflect.DeepEqual(got, live) {
		t.Fatalf("restart from snapshot + truncated journal diverged:\nrecovered: %+v\nlive:      %+v", got, live)
	}
	// The suffix replayed must be bounded by what happened since the
	// previous snapshot, not the full 17-entry history.
	if st2 := m2.Stats(); st2.JournalReplayed >= 17 || st2.JournalReplayed < 1 {
		t.Fatalf("restart replayed %d entries, want a small suffix", st2.JournalReplayed)
	}
}

// TestSnapshotCorruptionFallsBack: a corrupt newest snapshot must be
// skipped in favour of the previous one, and — because truncation lags one
// snapshot — recovery must still reproduce the full catalog.
func TestSnapshotCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	m, journalPath := newJournaledManager(t, dir, false, false)
	for i := 0; i < 6; i++ {
		commitFile(t, m, fmt.Sprintf("cf.n%d.t0", i), 500+i, 4)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		commitFile(t, m, fmt.Sprintf("cf.n%d.t1", i), 600+i, 4)
	}
	w2, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	commitFile(t, m, "cf.n0.t2", 700, 4)
	live := snapshotCatalog(m.cat, false)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a payload byte in the newest snapshot; the checksum must catch
	// it.
	newest := snapshotPath(journalPath, w2)
	raw, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff
	if err := os.WriteFile(newest, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Config{JournalPath: journalPath, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := snapshotCatalog(m2.cat, false); !reflect.DeepEqual(got, live) {
		t.Fatalf("fallback recovery diverged from live catalog:\nrecovered: %+v\nlive:      %+v", got, live)
	}
	if st := m2.Stats(); st.SnapshotSeq == 0 || st.SnapshotSeq >= int64(w2) {
		t.Fatalf("fallback recovered from watermark %d, want the previous snapshot's (< %d, > 0)", st.SnapshotSeq, w2)
	}
}

// TestSnapshotTornJournalAtTruncationBoundary: a crash can tear the final
// journal record right after a snapshot truncated the file. Recovery must
// truncate the torn tail, replay the intact post-watermark suffix, and
// keep everything the snapshot covers.
func TestSnapshotTornJournalAtTruncationBoundary(t *testing.T) {
	dir := t.TempDir()
	m, journalPath := newJournaledManager(t, dir, false, false)
	for i := 0; i < 5; i++ {
		commitFile(t, m, fmt.Sprintf("tt.n%d.t0", i), 800+i, 4)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		commitFile(t, m, fmt.Sprintf("tt.n%d.t1", i), 900+i, 4)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record mid-byte (crash mid-append after the snapshot's
	// truncation point).
	raw, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journalPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Config{JournalPath: journalPath, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatalf("recovery refused torn journal after snapshot: %v", err)
	}
	defer m2.Close()
	// All 5 snapshot-covered files must be present, plus the intact
	// suffix: t1 commits minus the torn final record.
	for i := 0; i < 5; i++ {
		if _, _, err := m2.cat.getMap(fmt.Sprintf("tt.n%d", i), 0); err != nil {
			t.Fatalf("snapshot-covered dataset tt.n%d lost: %v", i, err)
		}
	}
	_, versions, _, _, _ := m2.cat.counters()
	if versions != 7 { // 5 covered + 3 suffix - 1 torn
		t.Fatalf("recovered %d versions, want 7 (5 snapshot-covered + 2 intact suffix records)", versions)
	}
}

// TestJournalErrorSurfacing: after a journal write failure, commits must
// fail instead of acknowledging unjournaled state, the error count must
// surface in stats, and Close must return the sticky first error.
func TestJournalErrorSurfacing(t *testing.T) {
	for _, mode := range []struct {
		name        string
		sync, fsync bool
	}{
		{"sync", true, false},
		{"async+fsync", false, true},
	} {
		t.Run(mode.name, func(t *testing.T) {
			defer faultpoint.Reset()
			dir := t.TempDir()
			m, _ := newJournaledManager(t, dir, mode.sync, mode.fsync)
			commitFile(t, m, "je.n0.t0", 10, 4)
			before := snapshotCatalog(m.cat, true)

			if err := faultpoint.Enable("manager.journal.append", faultpoint.Config{Mode: faultpoint.ModeError}); err != nil {
				t.Fatal(err)
			}
			var alloc proto.AllocResp
			if err := m.Invoke(proto.MAlloc, proto.AllocReq{
				Name: "je.n1.t0", StripeWidth: 1, ChunkSize: 1 << 10, ReserveBytes: 4 << 10, Replication: 1,
			}, &alloc); err != nil {
				t.Fatal(err)
			}
			chunks, total := commitChunks(11, 4, 1<<10)
			for i := range chunks {
				chunks[i].Locations = []core.NodeID{alloc.Stripe[0].ID}
			}
			if err := m.Invoke(proto.MCommit, proto.CommitReq{
				WriteID: alloc.WriteID, FileSize: total, Chunks: chunks,
			}, nil); err == nil {
				t.Fatal("commit acknowledged though its journal record failed")
			}
			// The failed commit must have rolled back completely.
			if after := snapshotCatalog(m.cat, true); !reflect.DeepEqual(before, after) {
				t.Fatalf("failed-journal commit left catalog residue:\nbefore: %+v\nafter:  %+v", before, after)
			}
			faultpoint.Disable("manager.journal.append")
			// The error is sticky: even with the fault disarmed, further
			// commits fail fast rather than risk a journal with a gap.
			if err := m.cat.journalHook(journalEntry{Op: "delete", Name: "je.n0.t0"}); err == nil {
				t.Fatal("journal accepted records after a write failure")
			}
			if st := m.Stats(); st.JournalErrors == 0 {
				t.Fatal("JournalErrors stat did not count the failure")
			}
			if err := m.Close(); err == nil {
				t.Fatal("Close returned nil despite a journal write failure")
			} else if !strings.Contains(err.Error(), "journal") {
				t.Fatalf("Close error %v does not surface the journal failure", err)
			}
		})
	}
}

// TestSnapshotFaultsAreAtomic: an injected failure during snapshot write
// or rename must leave no snapshot file behind and must not corrupt the
// journal — the next restart simply replays the full journal.
func TestSnapshotFaultsAreAtomic(t *testing.T) {
	for _, point := range []string{"manager.snapshot.write", "manager.snapshot.rename"} {
		t.Run(point, func(t *testing.T) {
			defer faultpoint.Reset()
			dir := t.TempDir()
			m, journalPath := newJournaledManager(t, dir, false, false)
			for i := 0; i < 4; i++ {
				commitFile(t, m, fmt.Sprintf("sf.n%d.t0", i), 20+i, 4)
			}
			live := snapshotCatalog(m.cat, false)
			if err := faultpoint.Enable(point, faultpoint.Config{Mode: faultpoint.ModeError}); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Snapshot(); err == nil {
				t.Fatal("snapshot succeeded despite injected fault")
			}
			faultpoint.Disable(point)
			if snaps, _ := listSnapshots(journalPath); len(snaps) != 0 {
				t.Fatalf("failed snapshot left files behind: %v", snaps)
			}
			if st := m.Stats(); st.Snapshots != 0 {
				t.Fatalf("failed snapshot counted in stats: %d", st.Snapshots)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m2, err := New(Config{JournalPath: journalPath, HeartbeatInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer m2.Close()
			if got := snapshotCatalog(m2.cat, false); !reflect.DeepEqual(got, live) {
				t.Fatalf("recovery after failed snapshot diverged:\nrecovered: %+v\nlive:      %+v", got, live)
			}
		})
	}
}

// TestCrashAtFaultpointsRecoversAcknowledgedCommits is the manager-level
// crash sweep: for every registered fault point on the commit durability
// path, a crash at that point (durable files captured at the fault
// instant, kill -9 semantics) followed by a restart must recover every
// commit that was acknowledged before the crash, and the recovered catalog
// must be a crash-free-equivalent prefix plus nothing invented.
func TestCrashAtFaultpointsRecoversAcknowledgedCommits(t *testing.T) {
	points := []string{
		"manager.journal.append",
		"manager.journal.fsync",
		"manager.commit.publish",
		"manager.snapshot.write",
		"manager.snapshot.rename",
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			defer faultpoint.Reset()
			dir := t.TempDir()
			crashDir := filepath.Join(dir, "crash-image")
			// FsyncJournal: with group commit, an acknowledged commit is in
			// the journal file before the ack — the invariant this sweep
			// proves at every crash point.
			journalPath := filepath.Join(dir, "manager.journal")
			m, err := New(Config{
				JournalPath:       journalPath,
				FsyncJournal:      true,
				HeartbeatInterval: time.Hour,
				SessionTTL:        time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				req := proto.RegisterReq{
					ID:   core.NodeID(fmt.Sprintf("cr%d:1", i)),
					Addr: fmt.Sprintf("cr%d:1", i), Capacity: 1 << 40, Free: 1 << 40,
				}
				if err := m.Invoke(proto.MRegister, req, nil); err != nil {
					t.Fatal(err)
				}
			}
			// The crash handler copies the journal directory at the fault
			// instant — exactly the files a kill -9 would leave.
			faultpoint.SetCrashHandler(func(string) {
				copyDir(t, dir, crashDir)
			})

			var acked []string
			commitOne := func(name string, seed int) error {
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
				if err := m.Invoke(proto.MCommit, proto.CommitReq{
					WriteID: alloc.WriteID, FileSize: total, Chunks: chunks,
				}, nil); err != nil {
					return err
				}
				acked = append(acked, name)
				return nil
			}

			for i := 0; i < 5; i++ {
				if err := commitOne(fmt.Sprintf("cp.n%d.t0", i), 30+i); err != nil {
					t.Fatal(err)
				}
			}
			if strings.HasPrefix(point, "manager.snapshot.") {
				// Crash inside the snapshot path, then keep committing —
				// the manager survives the failed snapshot; the crash
				// image is what the recovery assertion runs against.
				if err := faultpoint.Enable(point, faultpoint.Config{Mode: faultpoint.ModeCrash, Count: 1}); err != nil {
					t.Fatal(err)
				}
				if _, err := m.Snapshot(); err == nil {
					t.Fatal("snapshot survived injected crash point")
				}
			} else {
				if err := faultpoint.Enable(point, faultpoint.Config{Mode: faultpoint.ModeCrash, Count: 1}); err != nil {
					t.Fatal(err)
				}
				// Commit until the crash point fires; commits that error
				// were never acknowledged.
				for i := 0; i < 5; i++ {
					if err := commitOne(fmt.Sprintf("cp.n%d.t1", i), 40+i); err != nil {
						break
					}
				}
			}
			if crashed, _ := os.Stat(crashDir); crashed == nil {
				t.Fatalf("fault point %s never fired", point)
			}
			m.Close() // may return the sticky error; the crash image is already taken

			// Restart from the crash image.
			m2, err := New(Config{
				JournalPath:       filepath.Join(crashDir, "manager.journal"),
				HeartbeatInterval: time.Hour,
			})
			if err != nil {
				t.Fatalf("restart from crash image at %s: %v", point, err)
			}
			defer m2.Close()
			for _, name := range acked {
				if _, _, err := m2.cat.getMap(name, 0); err != nil {
					t.Fatalf("crash at %s lost acknowledged commit %s: %v", point, name, err)
				}
			}
			// Nothing invented: every recovered version must be one the
			// workload committed (acknowledged or in the crash window).
			_, versions, _, _, _ := m2.cat.counters()
			if versions < len(acked) || versions > len(acked)+1 {
				t.Fatalf("crash at %s recovered %d versions; %d acknowledged (+1 allowed for the in-flight record)",
					point, versions, len(acked))
			}
		})
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// copyDir copies the regular files of src into dst (recreated), capturing
// the durable state a kill -9 would leave.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.RemoveAll(dst); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalTicketsResumeAfterReopen guards the async writer's starting
// ticket: after recovery the ticket counter resumes above persisted
// entries and the snapshot watermark, and the writer must start there too.
// A writer expecting ticket 1 would strand every new record in its reorder
// buffer forever — with group-commit fsync this surfaces as a committer
// hung on its durability ack.
func TestJournalTicketsResumeAfterReopen(t *testing.T) {
	dir := t.TempDir()
	m, journalPath := newJournaledManager(t, dir, false, true)
	for i := 0; i < 3; i++ {
		commitFile(t, m, fmt.Sprintf("rx.n%d.t0", i), 50+i, 4)
	}
	w1, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart with both persisted entries and a watermark floor; the next
	// commit blocks on its group-commit ack, so a writer stuck waiting for
	// ticket 1 would hang right here.
	m2, err := New(Config{JournalPath: journalPath, FsyncJournal: true, HeartbeatInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	req := proto.RegisterReq{ID: "rx0:1", Addr: "rx0:1", Capacity: 1 << 40, Free: 1 << 40}
	if err := m2.Invoke(proto.MRegister, req, nil); err != nil {
		t.Fatal(err)
	}
	commitFile(t, m2, "rx.n9.t0", 99, 4)
	if err := m2.Close(); err != nil {
		t.Fatal(err)
	}

	entries, err := readJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	last := entries[len(entries)-1]
	if last.Name != "rx.n9.t0" {
		t.Fatalf("post-reopen commit never reached the journal (last entry %q)", last.Name)
	}
	if last.Seq <= w1 {
		t.Fatalf("post-reopen ticket %d did not resume past the watermark %d", last.Seq, w1)
	}
}
