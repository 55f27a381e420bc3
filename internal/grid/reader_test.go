package grid

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/leakcheck"
	"stdchk/internal/manager"
)

// The tests below drive the restore scheduler of a client with no
// read-side switch set (no ReadAheadBytes) over real sockets: what a user
// gets by default.

// TestDefaultReaderBatchesSmallChunksNotLarge pins the two batch bounds of
// the default 4 MB window. At 64 KB chunks every refill puts several
// chunks on each stripe node, so the whole image arrives in BGetBatch
// replies; at 1 MB chunks a second chunk would outgrow a pooled reply
// buffer, so every chunk travels alone as a plain BGet.
func TestDefaultReaderBatchesSmallChunksNotLarge(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	const size = 8 << 20
	for _, tc := range []struct {
		name        string
		chunk       int64
		wantBatched int64
	}{
		{"small.n1.t0", 64 << 10, size},
		{"large.n1.t0", 1 << 20, 0},
	} {
		cl := testClient(t, c, client.Config{StripeWidth: 4, ChunkSize: tc.chunk, Replication: 1})
		data := payload(tc.chunk, size)
		writeFile(t, cl, tc.name, data)
		r, err := cl.Open(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		fetched, batched := r.BytesFetched(), r.BytesBatched()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%s: restore is not byte-identical", tc.name)
		}
		if fetched != size || batched != tc.wantBatched {
			t.Fatalf("%s: fetched %d, batched %d; want %d, %d", tc.name, fetched, batched, int64(size), tc.wantBatched)
		}
	}
}

// TestDefaultReaderFailsOverPerChunk kills one of two replicas while a
// default reader is mid-restore, with refills still to come that address
// batches to the dead node. The restore must complete byte-identical, and
// BytesFetched must equal the file size exactly: slots a batch served are
// never fetched again, slots it could not serve are fetched once, from
// the surviving replica.
func TestDefaultReaderFailsOverPerChunk(t *testing.T) {
	c := testCluster(t, 3, manager.Config{
		ReplicationInterval: 50 * time.Millisecond,
		DefaultReplication:  2,
		HeartbeatInterval:   100 * time.Millisecond,
	})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, Replication: 2, StripeWidth: 2})
	data := payload(74, 6<<20) // 192 chunks: the 4 MB window holds the first 128
	writeFile(t, cl, "deffo.n1.t0", data)

	awaitReplicationTargets(t, c, 5*time.Second) // a second replica to fall over to

	r, err := cl.Open("deffo.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	head := make([]byte, 64<<10)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatal(err)
	}
	// The reader rotates each chunk's replica preference by its index, so
	// the last chunk's batch is addressed to Locations[last][last%n].
	m := r.Map()
	last := len(m.Locations) - 1
	stopNode(t, c, m.Locations[last][last%len(m.Locations[last])])

	rest, err := r.ReadAll()
	if err != nil {
		t.Fatalf("restore after replica death: %v", err)
	}
	if !bytes.Equal(append(head, rest...), data) {
		t.Fatal("failover restore is not byte-identical")
	}
	if r.BytesFetched() != int64(len(data)) {
		t.Fatalf("fetched %d bytes for a %d-byte file: a served slot was fetched again", r.BytesFetched(), len(data))
	}
	if b := r.BytesBatched(); b == 0 || b == int64(len(data)) {
		t.Fatalf("batched %d of %d bytes: want some batched and some failed over", b, len(data))
	}
}

// TestReadAfterRepairAndDonorDeath: a map fetched before background
// repair lists one replica per chunk. Once repair has copied every chunk
// and a donor stops, a read must find the copies — through a fresh client,
// whose map the manager builds from its current replica sets, and through
// the client that read before repair, whose cached map the manager
// confirms as "unchanged" and whose Reader fetches the version's map again
// when every replica it lists for a chunk has failed.
func TestReadAfterRepairAndDonorDeath(t *testing.T) {
	const chunk = 16 << 10
	c := testCluster(t, 3, manager.Config{
		HeartbeatInterval:   100 * time.Millisecond,
		ReplicationInterval: 50 * time.Millisecond,
		DefaultReplication:  2,
		// One chunk copied per round: the first read below comes long
		// before repair has finished.
		RepairBytesPerRound: chunk,
	})
	cfg := client.Config{StripeWidth: 3, ChunkSize: chunk, Replication: 2}
	cl := testClient(t, c, cfg)
	data := payload(76, 24*chunk)
	writeFile(t, cl, "repaired.n1.t0", data)
	if got := readFile(t, cl, "repaired.n1"); !bytes.Equal(got, data) {
		t.Fatal("read before repair is not byte-identical")
	}

	awaitReplicationTargets(t, c, 10*time.Second)
	if err := c.StopBenefactor(0); err != nil {
		t.Fatal(err)
	}
	for _, arm := range []struct {
		name string
		cl   *client.Client
	}{
		{"fresh-client", testClient(t, c, cfg)},
		{"same-client", cl},
	} {
		t.Run(arm.name, func(t *testing.T) {
			r, err := arm.cl.Open("repaired.n1")
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			got, err := r.ReadAll()
			if err != nil {
				t.Fatalf("read after repair and donor death: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("read after repair and donor death is not byte-identical")
			}
		})
	}
}

// stopNode stops the benefactor with the given node ID.
func stopNode(t *testing.T, c *Cluster, id core.NodeID) {
	t.Helper()
	for i, have := range c.NodeIDs() {
		if have == id {
			if err := c.StopBenefactor(i); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("benefactor %s not found in cluster", id)
}

// TestReaderAndClientCloseLeaveNothingBehind closes a default reader while
// a refill's batches are in flight on a slow link, then closes the client.
// Every goroutine the restore started must exit — the fetches (failed by
// the closing pool), the drainers that hand each abandoned chunk buffer
// back to the wire pool (a drainer exits only after it has received its
// chunk's one result), and the pool's per-connection reply readers — so
// the count returns to what it was before the client existed.
func TestReaderAndClientCloseLeaveNothingBehind(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	const chunk = 64 << 10
	data := payload(75, 8<<20)
	wcl, _, err := c.NewClient(client.Config{StripeWidth: 4, ChunkSize: chunk, Replication: 1}, device.Unshaped())
	if err != nil {
		t.Fatal(err)
	}
	writeFile(t, wcl, "leak.n1.t0", data)
	wcl.Close()

	// The writer's server-side connection goroutines wind down
	// asynchronously; take the baseline once the count stops falling.
	baseline := runtime.NumGoroutine()
	for settled := 0; settled < 5; {
		time.Sleep(10 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < baseline {
			baseline, settled = n, 0
		} else {
			settled++
		}
	}
	base := leakcheck.Take()

	cl, _, err := c.NewClient(client.Config{}, device.Profile{LinkDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("leak.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	// Reading just past half the 4 MB window triggers the refill; its
	// requests are still sleeping in the modeled link when Close runs.
	if _, err := io.ReadFull(r, make([]byte, 32*chunk+1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the client (baseline %d):\n%s",
				runtime.NumGoroutine()-baseline, baseline, leakcheck.Report(base, leakcheck.Take()))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// requestGauge is a client-side connection wrapper that tracks requests
// awaiting a reply across all of a client's connections: a Write sends
// one, and reply bytes arriving mean the one outstanding was answered.
// Under stop-and-wait no Write may find a request still outstanding.
// Every request then waits a millisecond before it goes out, the
// one-way delay lan_64k models: on loopback a reply otherwise often
// comes back before the next concurrent request is written, and the
// default reader's overlap goes unseen.
type requestGauge struct {
	outstanding atomic.Int64
	overlapped  atomic.Int64
}

type gaugedConn struct {
	net.Conn
	g *requestGauge
}

func (c *gaugedConn) Write(p []byte) (int, error) {
	if c.g.outstanding.Add(1) > 1 {
		c.g.overlapped.Add(1)
	}
	time.Sleep(time.Millisecond)
	return c.Conn.Write(p)
}

func (c *gaugedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.g.outstanding.Store(0)
	}
	return n, err
}

// TestStopAndWaitIsTheDegenerateScheduler runs the one scheduler with a
// one-chunk ReadAheadBytes and checks it is stop-and-wait: never a
// second request on the wire before the previous reply arrived, and no
// bytes batched. The default reader on the same image must overlap
// requests, which shows the gauge can see the difference.
func TestStopAndWaitIsTheDegenerateScheduler(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	data := payload(76, 2<<20)
	wcl := testClient(t, c, client.Config{StripeWidth: 4, ChunkSize: 32 << 10, Replication: 1})
	writeFile(t, wcl, "saw.n1.t0", data)

	restore := func(cfg client.Config) (overlapped, batched int64) {
		t.Helper()
		g := &requestGauge{}
		cfg.ManagerAddr = c.Manager.Addr()
		cfg.Shaper = func(conn net.Conn) net.Conn { return &gaugedConn{Conn: conn, g: g} }
		cl, err := client.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		r, err := cl.Open("saw.n1.t0")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, data) {
			t.Fatal("restore is not byte-identical")
		}
		return g.overlapped.Load(), r.BytesBatched()
	}

	if overlapped, batched := restore(client.Config{ReadAheadBytes: 32 << 10}); overlapped != 0 || batched != 0 {
		t.Fatalf("ReadAheadBytes = one chunk: %d requests overlapped another, %d bytes batched; want 0, 0", overlapped, batched)
	}
	if overlapped, batched := restore(client.Config{}); overlapped == 0 || batched != int64(len(data)) {
		t.Fatalf("default reader: %d requests overlapped, %d of %d bytes batched; want > 0 and all", overlapped, batched, len(data))
	}
}

// TestIncrementalRestoreFetchesExactlyTheDiff restores v2 against a local
// copy of v1 through the default reader: chunks shared with the baseline
// are served locally and the network carries exactly the bytes the
// manager's diff reports, whichever request shape each chunk rode.
func TestIncrementalRestoreFetchesExactlyTheDiff(t *testing.T) {
	c := testCluster(t, 4, manager.Config{})
	const chunk = 64 << 10
	cl := testClient(t, c, client.Config{StripeWidth: 4, ChunkSize: chunk, Replication: 1, Incremental: true})
	base := payload(77, 6<<20)
	mutated := append([]byte(nil), base...)
	// Rewrite a run of chunks (batched together), two neighbours on
	// different nodes, and one chunk on its own.
	for _, ch := range []int{8, 9, 10, 11, 12, 13, 14, 15, 40, 41, 77} {
		copy(mutated[ch*chunk:], payload(int64(1000+ch), chunk))
	}
	writeFile(t, cl, "inc.n1.t0", base)
	writeFile(t, cl, "inc.n1.t1", mutated)

	hist, err := cl.History("inc.n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Versions) != 2 {
		t.Fatalf("%d versions, want 2", len(hist.Versions))
	}
	v1, v2 := hist.Versions[0].Version, hist.Versions[1].Version
	diff, err := cl.Diff("inc.n1", v1, v2)
	if err != nil {
		t.Fatal(err)
	}
	if diff.DiffBytes != 11*chunk {
		t.Fatalf("diff reports %d bytes, want %d", diff.DiffBytes, 11*chunk)
	}

	r, err := cl.Open("inc.n1", client.OpenOptions{Version: v2, Baseline: v1, BaselineData: base})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mutated) {
		t.Fatal("incremental restore is not byte-identical")
	}
	if r.BytesFetched() != diff.DiffBytes || r.BytesLocal() != int64(len(mutated))-diff.DiffBytes {
		t.Fatalf("fetched %d / local %d, want exactly the diff %d / the rest %d",
			r.BytesFetched(), r.BytesLocal(), diff.DiffBytes, int64(len(mutated))-diff.DiffBytes)
	}
}
