package grid

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
)

// testCluster starts an unshaped cluster suitable for unit-speed tests.
// The GC grace deliberately exceeds any test's write-session duration:
// the grace period is the mechanism that protects in-flight (uncommitted)
// chunks from collection, so deployments must keep it above the longest
// expected session (see DESIGN.md). Tests that need fast GC build their
// own cluster.
func testCluster(t *testing.T, benefactors int, mcfg manager.Config) *Cluster {
	t.Helper()
	c, err := Start(Options{
		Benefactors:       benefactors,
		BenefactorProfile: device.Unshaped(),
		Manager:           mcfg,
		GCInterval:        200 * time.Millisecond,
		GCGrace:           30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func testClient(t *testing.T, c *Cluster, cfg client.Config) *client.Client {
	t.Helper()
	cl, _, err := c.NewClient(cfg, device.Unshaped())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

func payload(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func writeFile(t *testing.T, cl *client.Client, name string, data []byte) *client.Writer {
	t.Helper()
	w, err := cl.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	return w
}

func readFile(t *testing.T, cl *client.Client, name string) []byte {
	t.Helper()
	r, err := cl.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	data, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestWriteReadRoundTripAllProtocols(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	protocols := []client.Protocol{client.SlidingWindow, client.IncrementalWrite, client.CompleteLocalWrite}
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			cl := testClient(t, c, client.Config{
				Protocol:      p,
				StripeWidth:   4,
				ChunkSize:     64 << 10,
				TempFileBytes: 256 << 10,
			})
			data := payload(int64(p), 3<<20+12345) // deliberately not chunk-aligned
			name := fmt.Sprintf("app%d.n1.t1", p)
			writeFile(t, cl, name, data)
			got := readFile(t, cl, name)
			if !bytes.Equal(got, data) {
				t.Fatalf("read back %d bytes, want %d; content mismatch", len(got), len(data))
			}
		})
	}
}

func TestSmallAndEmptyFiles(t *testing.T) {
	c := testCluster(t, 2, manager.Config{})
	cl := testClient(t, c, client.Config{ChunkSize: 64 << 10})
	tests := []struct {
		name string
		size int
	}{
		{"tiny.n1.t1", 1},
		{"small.n1.t1", 1000},
		{"exact.n1.t1", 64 << 10},
		{"empty.n1.t1", 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data := payload(int64(tt.size), tt.size)
			writeFile(t, cl, tt.name, data)
			got := readFile(t, cl, tt.name)
			if !bytes.Equal(got, data) {
				t.Fatalf("mismatch for %d-byte file", tt.size)
			}
		})
	}
}

func TestVersionChainAndExplicitVersionOpen(t *testing.T) {
	c := testCluster(t, 3, manager.Config{})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10})

	var versions []core.VersionID
	var images [][]byte
	for ts := 0; ts < 3; ts++ {
		data := payload(int64(100+ts), 200<<10)
		images = append(images, data)
		writeFile(t, cl, fmt.Sprintf("app.n1.t%d", ts), data)
	}
	info, err := cl.Stat("app.n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 3 {
		t.Fatalf("got %d versions, want 3", len(info.Versions))
	}
	for _, v := range info.Versions {
		versions = append(versions, v.Version)
	}
	// Latest must be t2's image.
	if got := readFile(t, cl, "app.n1"); !bytes.Equal(got, images[2]) {
		t.Fatal("latest version is not the last write")
	}
	// Every version individually addressable.
	for i, ver := range versions {
		r, err := cl.Open("app.n1", client.OpenOptions{Version: ver})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, images[i]) {
			t.Fatalf("version %d content mismatch", ver)
		}
	}
	// Timestep-addressed read.
	if got := readFile(t, cl, "app.n1.t0"); !bytes.Equal(got, images[0]) {
		t.Fatal("timestep-addressed read mismatch")
	}
}

func TestIncrementalDedupSharesChunks(t *testing.T) {
	c := testCluster(t, 3, manager.Config{})
	cl := testClient(t, c, client.Config{ChunkSize: 64 << 10, Incremental: true})

	base := payload(7, 1<<20)
	w1 := writeFile(t, cl, "inc.n1.t0", base)
	m1 := w1.Metrics()
	if m1.Uploaded != int64(len(base)) || m1.Deduped != 0 {
		t.Fatalf("first write: uploaded %d deduped %d", m1.Uploaded, m1.Deduped)
	}

	// Second version: identical but one modified chunk-sized region.
	next := append([]byte(nil), base...)
	copy(next[128<<10:], payload(8, 64<<10))
	w2 := writeFile(t, cl, "inc.n1.t1", next)
	m2 := w2.Metrics()
	if m2.Deduped < int64(len(base))*3/4 {
		t.Fatalf("second write deduped only %d of %d bytes", m2.Deduped, len(base))
	}
	if m2.Uploaded > int64(len(base))/4 {
		t.Fatalf("second write uploaded %d bytes, want only the changed region", m2.Uploaded)
	}

	// Both versions still read back correctly (COW sharing intact).
	if got := readFile(t, cl, "inc.n1.t0"); !bytes.Equal(got, base) {
		t.Fatal("v0 corrupted by COW sharing")
	}
	if got := readFile(t, cl, "inc.n1.t1"); !bytes.Equal(got, next) {
		t.Fatal("v1 corrupted by COW sharing")
	}

	// Manager-side accounting: stored bytes < logical bytes.
	stats, err := cl.ManagerStats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoredBytes >= stats.LogicalBytes {
		t.Fatalf("no dedup in accounting: stored %d logical %d", stats.StoredBytes, stats.LogicalBytes)
	}
}

func TestPessimisticWriteWaitsForReplication(t *testing.T) {
	c := testCluster(t, 4, manager.Config{
		ReplicationInterval: 50 * time.Millisecond,
		DefaultReplication:  2,
	})
	cl := testClient(t, c, client.Config{
		ChunkSize:   32 << 10,
		Semantics:   core.WritePessimistic,
		Replication: 2,
		StripeWidth: 2,
	})
	data := payload(9, 256<<10)
	w, err := cl.Create("pess.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Pessimistic Close returns only after replication target reached.
	info, err := cl.Stat("pess.n1")
	if err != nil {
		t.Fatal(err)
	}
	last := info.Versions[len(info.Versions)-1]
	if last.Replication < 2 {
		t.Fatalf("replication %d after pessimistic close, want >= 2", last.Replication)
	}
}

func TestBackgroundReplicationReachesTarget(t *testing.T) {
	c := testCluster(t, 4, manager.Config{
		ReplicationInterval: 50 * time.Millisecond,
		DefaultReplication:  3,
	})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, Replication: 3, StripeWidth: 2})
	writeFile(t, cl, "repl.n1.t0", payload(10, 256<<10))

	deadline := time.Now().Add(5 * time.Second)
	for {
		info, err := cl.Stat("repl.n1")
		if err != nil {
			t.Fatal(err)
		}
		if info.Versions[0].Replication >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication stuck at %d, want 3", info.Versions[0].Replication)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestBenefactorFailureReadFailoverAndReRepair(t *testing.T) {
	c := testCluster(t, 4, manager.Config{
		ReplicationInterval: 50 * time.Millisecond,
		DefaultReplication:  2,
		HeartbeatInterval:   100 * time.Millisecond,
	})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, Replication: 2, StripeWidth: 2})
	data := payload(11, 512<<10)
	writeFile(t, cl, "fail.n1.t0", data)

	// Wait for replication level 2.
	awaitLevel := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			info, err := cl.Stat("fail.n1")
			if err != nil {
				t.Fatal(err)
			}
			if info.Versions[0].Replication >= want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("replication %d, want %d", info.Versions[0].Replication, want)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	awaitLevel(2)

	// Kill one benefactor holding data; the read must fall over to
	// replicas, and the system must re-replicate to a healthy node.
	if err := c.StopBenefactor(0); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitOffline(3, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, cl, "fail.n1"); !bytes.Equal(got, data) {
		t.Fatal("read after benefactor failure returned wrong data")
	}
	awaitLevel(2) // repaired on surviving nodes
}

func TestDeleteAndGarbageCollection(t *testing.T) {
	// Aggressive GC settings: grace far below session length would race
	// in-flight writes, so this dedicated cluster only writes fast files
	// and then deletes them.
	c, err := Start(Options{
		Benefactors:       2,
		BenefactorProfile: device.Unshaped(),
		GCInterval:        100 * time.Millisecond,
		GCGrace:           50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, Replication: 1, StripeWidth: 2})
	writeFile(t, cl, "gc.n1.t0", payload(12, 256<<10))

	used := func() int64 {
		var total int64
		for _, b := range c.Benefactors {
			if b != nil {
				total += b.Store().Used()
			}
		}
		return total
	}
	if used() == 0 {
		t.Fatal("no data stored")
	}
	if err := cl.Delete("gc.n1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("gc.n1"); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("open after delete: %v, want ErrNotFound", err)
	}
	// GC (grace 50ms, interval 100ms) must reclaim the orphaned chunks.
	deadline := time.Now().Add(5 * time.Second)
	for used() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still stored after delete + GC", used())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestGCDoesNotCollectLiveChunks(t *testing.T) {
	c, err := Start(Options{
		Benefactors:       2,
		BenefactorProfile: device.Unshaped(),
		GCInterval:        time.Hour, // rounds triggered manually below
		GCGrace:           50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, Replication: 1})
	data := payload(13, 256<<10)
	writeFile(t, cl, "keep.n1.t0", data)

	// Force several GC rounds past the grace period.
	time.Sleep(150 * time.Millisecond)
	for _, b := range c.Benefactors {
		if _, err := b.CollectGarbage(); err != nil {
			t.Fatal(err)
		}
	}
	if got := readFile(t, cl, "keep.n1"); !bytes.Equal(got, data) {
		t.Fatal("GC damaged live data")
	}
}

func TestReplacePolicyPrunesOldVersions(t *testing.T) {
	c := testCluster(t, 2, manager.Config{})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10})
	if err := cl.SetPolicy("app", core.Policy{Kind: core.PolicyReplace}); err != nil {
		t.Fatal(err)
	}
	for ts := 0; ts < 4; ts++ {
		writeFile(t, cl, fmt.Sprintf("app.n1.t%d", ts), payload(int64(20+ts), 64<<10))
	}
	info, err := cl.Stat("app.n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 1 {
		t.Fatalf("replace policy kept %d versions, want 1", len(info.Versions))
	}
	if info.Versions[0].Name != "app.n1.t3" {
		t.Fatalf("survivor is %s, want app.n1.t3", info.Versions[0].Name)
	}
}

func TestPurgePolicyExpiresVersions(t *testing.T) {
	c := testCluster(t, 2, manager.Config{PruneInterval: 50 * time.Millisecond})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10})
	if err := cl.SetPolicy("tmp", core.Policy{Kind: core.PolicyPurge, PurgeAfter: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	writeFile(t, cl, "tmp.n1.t0", payload(30, 64<<10))
	deadline := time.Now().Add(5 * time.Second)
	for {
		list, err := cl.List("tmp")
		if err != nil {
			t.Fatal(err)
		}
		if len(list) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("purge policy did not expire the version")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestPolicyDryRunAuditsWithoutMutating drives the retention audit end
// to end through a federated metadata plane: the dry run names exactly
// the versions the next sweep would prune, merged across members into
// one per-folder report, and leaves the catalog untouched.
func TestPolicyDryRunAuditsWithoutMutating(t *testing.T) {
	c := fedCluster(t, 2, 2)
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, StripeWidth: 1})
	if err := cl.SetPolicy("aud", core.Policy{Kind: core.PolicyNone, Retention: core.Retention{KeepLast: 1}}); err != nil {
		t.Fatal(err)
	}
	// Two datasets, two versions each; KeepLast 1 condemns each .t0.
	for _, ds := range []string{"aud.n0", "aud.n1"} {
		for ts := 0; ts < 2; ts++ {
			writeFile(t, cl, fmt.Sprintf("%s.t%d", ds, ts), payload(int64(len(ds)+ts), 64<<10))
		}
	}
	resp, err := cl.PolicyDryRun("")
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Folders) != 1 || resp.Folders[0].Folder != "aud" {
		t.Fatalf("dry run folders = %+v, want exactly [aud]", resp.Folders)
	}
	folder := resp.Folders[0]
	if folder.Policy.Retention.KeepLast != 1 {
		t.Fatalf("dry run echoes policy %+v, want KeepLast 1", folder.Policy)
	}
	var names []string
	for _, v := range folder.Victims {
		names = append(names, v.Name)
	}
	want := []string{"aud.n0.t0", "aud.n1.t0"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("dry run victims %v, want %v (merged across members, sorted)", names, want)
	}
	// Folder filter: a named folder restricts the report; an unenforced
	// folder yields nothing.
	if resp, err = cl.PolicyDryRun("aud"); err != nil || len(resp.Folders) != 1 {
		t.Fatalf("filtered dry run: %+v, %v", resp.Folders, err)
	}
	if resp, err = cl.PolicyDryRun("other"); err != nil || len(resp.Folders) != 0 {
		t.Fatalf("dry run of unenforced folder: %+v, %v", resp.Folders, err)
	}
	// The audit mutated nothing: both datasets still hold both versions.
	for _, ds := range []string{"aud.n0", "aud.n1"} {
		info, err := cl.Stat(ds)
		if err != nil {
			t.Fatal(err)
		}
		if len(info.Versions) != 2 {
			t.Fatalf("%s has %d versions after dry run, want 2", ds, len(info.Versions))
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl, _, err := c.NewClient(client.Config{ChunkSize: 64 << 10, StripeWidth: 2}, device.Unshaped())
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			for f := 0; f < 3; f++ {
				name := fmt.Sprintf("cc%d.n%d.t%d", i, i, f)
				data := payload(int64(i*10+f), 300<<10)
				w, err := cl.Create(name)
				if err != nil {
					errs <- err
					return
				}
				if _, err := w.Write(data); err != nil {
					errs <- err
					return
				}
				if err := w.Close(); err != nil {
					errs <- err
					return
				}
				if err := w.Wait(); err != nil {
					errs <- err
					return
				}
				r, err := cl.Open(name)
				if err != nil {
					errs <- fmt.Errorf("open %s: %w", name, err)
					return
				}
				got, err := r.ReadAll()
				r.Close()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, data) {
					errs <- fmt.Errorf("%s corrupted", name)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestManagerStatsTransactions(t *testing.T) {
	c := testCluster(t, 2, manager.Config{})
	cl := testClient(t, c, client.Config{ChunkSize: 64 << 10, ReserveQuantum: 1 << 20})
	writeFile(t, cl, "tx.n1.t0", payload(40, 2<<20))
	stats, err := cl.ManagerStats()
	if err != nil {
		t.Fatal(err)
	}
	// alloc + extend(s) + commit: the paper reports four manager
	// transactions per 100 MB write; here just assert they are counted.
	if stats.Transactions < 3 {
		t.Fatalf("transactions = %d, want >= 3", stats.Transactions)
	}
	if ds, vs := counter(t, stats, "catalog.datasets"), counter(t, stats, "catalog.versions"); ds != 1 || vs != 1 {
		t.Fatalf("datasets %d versions %d", ds, vs)
	}
}

// counter reads the named counter from st, failing the test when the
// manager declares no such counter.
func counter(t testing.TB, st proto.ManagerStats, name string) int64 {
	t.Helper()
	c, ok := st.Counters[name]
	if !ok {
		t.Fatalf("manager declares no counter %q", name)
	}
	return c.Value
}
