package grid

import (
	"bytes"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/device"
	"stdchk/internal/faultpoint"
	"stdchk/internal/manager"
)

// churnCluster is a disk-backed cluster with a node TTL long enough that
// a prompt restart rejoins before the victim is ever suspected — the
// flap regime, where healing must be metadata-only.
func churnCluster(t *testing.T, donors int, scrub time.Duration) *Cluster {
	t.Helper()
	c, err := Start(Options{
		Benefactors:       donors,
		BenefactorProfile: device.Unshaped(),
		DiskBacked:        true,
		DiskDir:           t.TempDir(),
		ScrubInterval:     scrub,
		ScrubBatch:        1024,
		Manager: manager.Config{
			HeartbeatInterval:   50 * time.Millisecond,
			NodeTTL:             2 * time.Second,
			ReplicationInterval: 100 * time.Millisecond,
		},
		GCInterval: time.Hour,
		GCGrace:    30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// awaitReplicationTargets polls the manager's on-demand scan until every
// committed chunk is back at its dataset's replication target.
func awaitReplicationTargets(t *testing.T, c *Cluster, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		crit, bulk := c.Manager.UnderReplicated()
		if crit == 0 && bulk == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never converged: %d critical + %d bulk chunks still under target", crit, bulk)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChurnMidStormRestartReconcilesWithoutRecopy kills a donor in the
// middle of a multi-writer storm and restarts it disk-intact. Writers
// whose stripe hit the dead node retry (the paper's application-level
// retry model); every committed file must restore byte-identical. Then,
// with the cluster quiescent and every chunk at target, a second flap of
// the same kind must heal purely by rejoin reconciliation: inventory
// re-adopted, zero repair bytes copied.
func TestChurnMidStormRestartReconcilesWithoutRecopy(t *testing.T) {
	c := churnCluster(t, 5, 0)
	const writers, files = 4, 3
	data := make(map[string][]byte) // final committed name -> payload
	var mu sync.Mutex

	var wg, firstFile sync.WaitGroup
	gate := make(chan struct{}) // closed once the flap has been injected
	errs := make(chan error, writers)
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		firstFile.Add(1)
		go func(wid int) {
			defer wg.Done()
			cl, _, err := c.NewClient(client.Config{
				ChunkSize: 16 << 10, StripeWidth: 2, Replication: 2,
				BufferBytes: 32 << 10,
			}, device.Unshaped())
			if err != nil {
				firstFile.Done()
				errs <- err
				return
			}
			defer cl.Close()
			for i := 0; i < files; i++ {
				img := payload(int64(800+wid*10+i), 96<<10)
				var lastErr error
				committed := false
				// A stripe node dying mid-write fails the session; the
				// application retries as a new version.
				for attempt := 0; attempt < 50 && !committed; attempt++ {
					name := fmt.Sprintf("storm.w%dn%d.t%d", wid, i, attempt)
					w, err := cl.Create(name)
					if err == nil {
						if _, err = w.Write(img); err == nil {
							if err = w.Close(); err == nil {
								err = w.Wait()
							}
						}
					}
					if err == nil {
						mu.Lock()
						data[name] = img
						mu.Unlock()
						committed = true
						break
					}
					lastErr = err
					time.Sleep(100 * time.Millisecond)
				}
				if !committed {
					if i == 0 {
						firstFile.Done()
					}
					errs <- fmt.Errorf("writer %d file %d never committed: %w", wid, i, lastErr)
					return
				}
				if i == 0 {
					// First file committed pre-kill; the rest of the storm
					// runs against the flapping donor.
					firstFile.Done()
					<-gate
				}
			}
		}(wid)
	}

	// Kill the victim only once it demonstrably holds chunk data (its own
	// stripes or replication copies), with every writer mid-storm.
	firstFile.Wait()
	for deadline := time.Now().Add(10 * time.Second); c.Benefactors[2].Store().Len() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("victim never received a chunk to carry through the flap")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := c.StopBenefactor(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartBenefactor(2); err != nil {
		t.Fatal(err)
	}
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The disk-intact rejoin must re-adopt the victim's inventory.
	deadline := time.Now().Add(10 * time.Second)
	for c.Manager.Stats().Repair.Reconciled <= 0 {
		if time.Now().After(deadline) {
			t.Fatal("restart under storm reconciled 0 locations, want > 0")
		}
		time.Sleep(20 * time.Millisecond)
	}
	awaitReplicationTargets(t, c, 15*time.Second)
	verify := func() {
		t.Helper()
		cl := testClient(t, c, client.Config{ChunkSize: 16 << 10})
		for name, img := range data {
			if got := readFile(t, cl, name); !bytes.Equal(got, img) {
				t.Fatalf("%s corrupted across the churn", name)
			}
		}
	}
	verify()

	// Quiescent flap: all chunks at target, so the rejoin must re-adopt
	// the donor's inventory without copying a single repair byte.
	before := c.Manager.Stats().Repair
	if err := c.StopBenefactor(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RestartBenefactor(1); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(10 * time.Second)
	for c.Manager.Stats().Repair.Reconciled <= before.Reconciled {
		if time.Now().After(deadline) {
			t.Fatal("quiescent flap never reconciled the rejoining donor's inventory")
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond) // several replication rounds
	awaitReplicationTargets(t, c, 5*time.Second)
	after := c.Manager.Stats().Repair
	if after.CopiedBytes != before.CopiedBytes {
		t.Fatalf("quiescent flap re-replicated %d bytes; reconciliation should have healed it for free",
			after.CopiedBytes-before.CopiedBytes)
	}
	verify()
}

// TestScrubCorruptionQuarantinedAndRepaired injects a latent corruption
// via the benefactor.scrub.corrupt faultpoint: the scrubber must fail
// verification, quarantine the replica, report it on the next heartbeat
// (manager drops the location and counts it), and repair must rebuild the
// lost replica — with the file restoring byte-identical throughout.
func TestScrubCorruptionQuarantinedAndRepaired(t *testing.T) {
	defer faultpoint.Reset()
	c := churnCluster(t, 3, 100*time.Millisecond)
	cl := testClient(t, c, client.Config{
		ChunkSize: 16 << 10, StripeWidth: 3, Replication: 2,
	})
	img := payload(810, 128<<10)
	writeFile(t, cl, "scrub.n1.t0", img)
	awaitReplicationTargets(t, c, 15*time.Second)

	// One scrub verification — on whichever donor's loop hits first —
	// fails as if a bit had flipped on disk.
	if err := faultpoint.Enable("benefactor.scrub.corrupt", faultpoint.Config{
		Mode: faultpoint.ModeError, Count: 1,
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Manager.Stats().Repair.CorruptReported < 1 {
		if time.Now().After(deadline) {
			t.Fatal("scrub corruption never reported to the manager")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The dropped location leaves the chunk one failure from loss; repair
	// must bring it back to target from the surviving replica.
	awaitReplicationTargets(t, c, 15*time.Second)
	if copied := c.Manager.Stats().Repair.CopiedBytes; copied <= 0 {
		t.Fatalf("quarantined replica healed with %d copied bytes, want > 0", copied)
	}
	if got := readFile(t, cl, "scrub.n1.t0"); !bytes.Equal(got, img) {
		t.Fatal("file not byte-identical after scrub quarantine + repair")
	}
}

// TestServedCorruptionQuarantinedAndRepaired is the same loop without a
// scrubber: scrubbing is off, every chunk file on one donor has a flipped
// byte, and an ordinary restore reads through it. The donor's own read
// check refuses those chunks (the reader fails over, the file is still
// byte-identical), and what it refused it must also quarantine and report,
// so the manager re-replicates from the surviving copies.
func TestServedCorruptionQuarantinedAndRepaired(t *testing.T) {
	c := churnCluster(t, 3, 0)
	cl := testClient(t, c, client.Config{
		ChunkSize: 4 << 10, StripeWidth: 3, Replication: 2,
	})
	img := payload(811, 128<<10)
	writeFile(t, cl, "served.n1.t0", img)
	awaitReplicationTargets(t, c, 15*time.Second)
	copiedBefore := c.Manager.Stats().Repair.CopiedBytes

	victim := c.Benefactors[0]
	flipped := 0
	err := filepath.WalkDir(filepath.Join(c.opts.DiskDir, string(victim.ID())), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		raw[len(raw)/2] ^= 0x40
		flipped++
		return os.WriteFile(path, raw, 0o644)
	})
	if err != nil || flipped == 0 {
		t.Fatalf("corrupting %s's chunk files: %d flipped, err %v", victim.ID(), flipped, err)
	}

	if got := readFile(t, cl, "served.n1.t0"); !bytes.Equal(got, img) {
		t.Fatal("file not byte-identical when one donor serves corrupt replicas")
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Manager.Stats().Repair.CorruptReported < 1 {
		if time.Now().After(deadline) {
			t.Fatal("corruption caught while serving was never reported to the manager")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if held := victim.Store().Len(); held >= flipped {
		t.Fatalf("%s still holds %d of its %d corrupt replicas after serving a restore", victim.ID(), held, flipped)
	}

	awaitReplicationTargets(t, c, 15*time.Second)
	if copied := c.Manager.Stats().Repair.CopiedBytes; copied <= copiedBefore {
		t.Fatalf("repair copied %d bytes before the corruption and %d after, want growth", copiedBefore, copied)
	}
	if got := readFile(t, cl, "served.n1.t0"); !bytes.Equal(got, img) {
		t.Fatal("file not byte-identical after serve-path quarantine + repair")
	}
}
