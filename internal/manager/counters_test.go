package manager

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"stdchk/internal/proto"
)

// counter reads the named counter from st, failing the test when the
// manager declares no such counter: a misspelt name fails instead of
// reading 0.
func counter(t testing.TB, st proto.ManagerStats, name string) int64 {
	t.Helper()
	c, ok := st.Counters[name]
	if !ok {
		t.Fatalf("manager declares no counter %q", name)
	}
	return c.Value
}

// TestFreshManagerCounters: a fresh manager's record lists every counter
// it declares, the named ones other packages read among them, at zero —
// except the admission bounds, which report their configuration, and the
// lock acquisitions that reading the record itself makes.
func TestFreshManagerCounters(t *testing.T) {
	m, err := New(Config{
		JournalPath:       filepath.Join(t.TempDir(), "manager.journal"),
		MaxPendingOps:     64,
		RetryAfterHint:    3 * time.Millisecond,
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	st := m.Stats()
	for _, name := range []string{
		proto.CtrBenefactorsOnline, proto.CtrDatasets, proto.CtrVersions, proto.CtrUniqueChunks,
		proto.CtrLogicalBytes, proto.CtrStoredBytes, proto.CtrDedupChunks, proto.CtrDedupHits,
		proto.CtrVersionsPruned, proto.CtrRepairCopiedBytes, proto.CtrRepairFailed,
		proto.CtrRepairReconciled, proto.CtrDecommissions, proto.CtrJournalRecords,
		proto.CtrJournalFsyncs, proto.CtrJournalReplayed, proto.CtrSnapshotSeq, proto.CtrLockOps,
		proto.CtrLockContended, proto.CtrShed, proto.CtrConnShed, proto.CtrPeakQueueDepth,
	} {
		counter(t, st, name)
	}
	want := map[string]int64{"admission.max_pending": 64, "admission.retry_after_us": 3000}
	for name, c := range st.Counters {
		if name == proto.CtrLockOps || name == "registry.lock_ops" {
			continue
		}
		if c.Value != want[name] {
			t.Errorf("fresh manager: %s = %d, want %d", name, c.Value, want[name])
		}
	}
}

// TestViewsEqualCounters: each ManagerStats field the benchmark module
// reads equals the op records or the counter it is a view over.
func TestViewsEqualCounters(t *testing.T) {
	m, _ := newJournaledManager(t, t.TempDir(), false, true)
	defer m.Close()
	invoke := func(op, _ string, req, resp interface{}) error { return m.Invoke(op, req, resp) }
	for v := 0; v < 3; v++ {
		if _, err := DriveCheckpoint(invoke, fmt.Sprintf("views.n1.t%d", v), 1, v, 8, 4<<10, false); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	var txns int64
	for _, op := range proto.TransactionOps {
		txns += st.Ops[op].Count
	}
	for _, v := range []struct {
		view, want int64
		name       string
	}{
		{st.Transactions, txns, "transactions"},
		{st.Extends, st.Ops[proto.MExtend].Count, proto.MExtend},
		{st.GetMaps, st.Ops[proto.MGetMap].Count, proto.MGetMap},
		{st.StatVersions, st.Ops[proto.MStatVersion].Count, proto.MStatVersion},
		{st.AllocLatency.Count, st.Ops[proto.MAlloc].Latency.Count, proto.MAlloc},
		{st.CommitLatency.Count, st.Ops[proto.MCommit].Latency.Count, proto.MCommit},
		{st.MapCache.Hits + st.MapCache.Misses + st.MapCache.Invalidations, 0, "map cache"},
		{st.LogicalBytes, counter(t, st, proto.CtrLogicalBytes), proto.CtrLogicalBytes},
		{st.StoredBytes, counter(t, st, proto.CtrStoredBytes), proto.CtrStoredBytes},
		{st.DedupChunks, counter(t, st, proto.CtrDedupChunks), proto.CtrDedupChunks},
		{st.DedupHits, counter(t, st, proto.CtrDedupHits), proto.CtrDedupHits},
		{st.JournalBatchLen, counter(t, st, proto.CtrJournalRecords), proto.CtrJournalRecords},
		{st.JournalFsyncs, counter(t, st, proto.CtrJournalFsyncs), proto.CtrJournalFsyncs},
		{st.StripeOps, counter(t, st, proto.CtrLockOps), proto.CtrLockOps},
		{st.StripeContention, counter(t, st, proto.CtrLockContended), proto.CtrLockContended},
	} {
		if v.view != v.want {
			t.Errorf("view over %s = %d, want %d", v.name, v.view, v.want)
		}
	}
	// The checks above compare numbers that moved: three versions of one
	// writer commit, probe stable chunks and journal with fsync.
	if st.Transactions != 12 || st.LogicalBytes == 0 || st.StoredBytes == 0 || st.DedupHits == 0 ||
		st.JournalBatchLen == 0 || st.JournalFsyncs == 0 || st.StripeOps == 0 {
		t.Fatalf("the workload left a view at zero: %+v", st)
	}
}
