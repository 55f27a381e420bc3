package grid

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/faultpoint"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
)

// copyTree copies the regular files of src into dst (recreated): the
// crash handler's kill -9 image of the manager's durable directory.
func copyTree(t *testing.T, src, dst string) {
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

// crashRestart replaces the standalone manager with one recovering from
// cfg's journal, on the same address. Unlike Cluster.RestartManager it
// tolerates the dying manager's Close error — after an injected journal
// fault, Close deliberately reports the sticky write failure.
func crashRestart(t *testing.T, c *Cluster, cfg manager.Config) {
	t.Helper()
	addr := c.Manager.Addr()
	c.Manager.Close() // sticky journal error expected after an injected crash
	cfg.ListenAddr = addr
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 100 * time.Millisecond
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mgr, err := manager.New(cfg)
		if err == nil {
			c.Manager = mgr
			c.Managers[0] = mgr
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart manager from crash image: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestManagerCrashAtCommitPathPreservesCheckpoints is the end-to-end
// crash-consistency proof: for each fault point on the commit durability
// path, a manager crash at that instant (durable files captured with
// kill -9 semantics) followed by a restart from the crash image must
// leave every acknowledged checkpoint byte-identical on read-back.
func TestManagerCrashAtCommitPathPreservesCheckpoints(t *testing.T) {
	points := []string{
		"manager.journal.append",
		"manager.journal.fsync",
		"manager.commit.publish",
	}
	for _, point := range points {
		t.Run(point, func(t *testing.T) {
			defer faultpoint.Reset()
			jdir := t.TempDir() // holds ONLY the journal + snapshots: the crash image
			crashDir := filepath.Join(t.TempDir(), "crash-image")
			jpath := filepath.Join(jdir, "mgr.journal")
			c := testCluster(t, 3, manager.Config{
				HeartbeatInterval: 100 * time.Millisecond,
				JournalPath:       jpath,
				FsyncJournal:      true,
			})
			cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, StripeWidth: 2})

			// Acknowledged checkpoints, half of them covered by a snapshot
			// so the restart exercises snapshot load + journal suffix.
			acked := map[string][]byte{}
			for i := 0; i < 3; i++ {
				name := fmt.Sprintf("crash.n%d.t0", i)
				data := payload(int64(500+i), 96<<10)
				writeFile(t, cl, name, data)
				acked[name] = data
			}
			if _, err := c.Manager.Snapshot(); err != nil {
				t.Fatal(err)
			}
			for i := 3; i < 6; i++ {
				name := fmt.Sprintf("crash.n%d.t0", i)
				data := payload(int64(500+i), 96<<10)
				writeFile(t, cl, name, data)
				acked[name] = data
			}

			faultpoint.SetCrashHandler(func(string) {
				copyTree(t, jdir, crashDir)
			})
			if err := faultpoint.Enable(point, faultpoint.Config{Mode: faultpoint.ModeCrash, Count: 1}); err != nil {
				t.Fatal(err)
			}
			// Write until the crash fires; the failed write was never
			// acknowledged, so it carries no durability promise.
			crashed := false
			for i := 0; i < 5 && !crashed; i++ {
				name := fmt.Sprintf("crash.x%d.t0", i)
				data := payload(int64(600+i), 96<<10)
				w, err := cl.Create(name)
				if err != nil {
					crashed = true
					break
				}
				if _, err := w.Write(data); err != nil {
					crashed = true
					break
				}
				if err := w.Close(); err != nil {
					crashed = true
					break
				}
				if err := w.Wait(); err != nil {
					crashed = true
					break
				}
				acked[name] = data
			}
			if !crashed {
				t.Fatalf("fault point %s never fired across 5 commits", point)
			}
			if _, err := os.Stat(crashDir); err != nil {
				t.Fatalf("crash handler left no image: %v", err)
			}

			// The manager "process" dies and restarts from the image taken
			// at the fault instant; benefactors (whose chunk stores
			// survived) re-register after heartbeat rejection.
			crashRestart(t, c, manager.Config{
				JournalPath:  filepath.Join(crashDir, "mgr.journal"),
				FsyncJournal: true,
			})
			if err := c.AwaitOnline(3, 10*time.Second); err != nil {
				t.Fatal(err)
			}

			cl2 := testClient(t, c, client.Config{ChunkSize: 32 << 10})
			for name, want := range acked {
				if got := readFile(t, cl2, name); !bytes.Equal(got, want) {
					t.Fatalf("crash at %s: acknowledged checkpoint %s corrupted (%d bytes read)", point, name, len(got))
				}
			}
			if st := c.Manager.Stats(); st.SnapshotSeq == 0 {
				t.Fatal("restart did not recover from the snapshot")
			}
		})
	}
}

// stormCluster is fedCluster with a journal and group-commit fsync: the
// configuration under which the federation must degrade gracefully.
func stormCluster(t *testing.T, jpath string) *Cluster {
	t.Helper()
	c, err := Start(Options{
		Managers:          2,
		Benefactors:       3,
		BenefactorProfile: device.Unshaped(),
		Manager: manager.Config{
			HeartbeatInterval:   100 * time.Millisecond,
			ReplicationInterval: time.Hour,
			JournalPath:         jpath,
			FsyncJournal:        true,
		},
		GCInterval: time.Hour,
		GCGrace:    time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestWriteStormSurvivesMemberRestart pins the client-side graceful
// degradation path end to end: a federation member is killed and
// restarted (journal recovery) in the middle of a multi-writer storm.
// Writes may fail while the member is down — but only gracefully (typed
// retryable exhaustion or an application-level refusal), every
// acknowledged write must read back byte-identical afterwards, and the
// partition must accept writes again once the member returns.
func TestWriteStormSurvivesMemberRestart(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "fed.journal")
	c := stormCluster(t, jpath)

	type outcome struct {
		name string
		data []byte
	}
	var (
		mu     sync.Mutex
		acked  []outcome
		failed []error
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	const writers = 4
	for wid := 0; wid < writers; wid++ {
		// Clients are built on the test goroutine (testClient may Fatal).
		cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, StripeWidth: 2})
		wg.Add(1)
		go func(wid int, cl *client.Client) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				name := fmt.Sprintf("storm.w%dn%d.t0", wid, i)
				data := payload(int64(wid*1000+i), 64<<10)
				err := func() error {
					w, err := cl.Create(name)
					if err != nil {
						return err
					}
					if _, err := w.Write(data); err != nil {
						return err
					}
					if err := w.Close(); err != nil {
						return err
					}
					return w.Wait()
				}()
				mu.Lock()
				if err != nil {
					failed = append(failed, fmt.Errorf("%s: %w", name, err))
				} else {
					acked = append(acked, outcome{name, data})
				}
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
			}
		}(wid, cl)
	}

	// Let the storm establish, then kill and restart member 0 with journal
	// recovery while writes are in flight.
	time.Sleep(100 * time.Millisecond)
	if err := c.RestartManager(manager.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		JournalPath:       jpath,
		FsyncJournal:      true,
	}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitOnline(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // storm continues against the recovered member
	close(stop)
	wg.Wait()

	if len(acked) == 0 {
		t.Fatal("storm acknowledged nothing")
	}
	t.Logf("storm: %d acknowledged, %d failed during the restart window", len(acked), len(failed))

	// Zero acknowledged-but-lost: every ack survives the crash window.
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10})
	for _, o := range acked {
		if got := readFile(t, cl, o.name); !bytes.Equal(got, o.data) {
			t.Fatalf("acknowledged write %s lost or corrupted across member restart", o.name)
		}
	}

	// The restarted member's partition accepts new work: write to a
	// dataset that hashes to member 0 and read it back.
	nameAt := func(member int) string {
		for i := 0; ; i++ {
			key := fmt.Sprintf("poststorm.n%d", i)
			if federation.OwnerIndex(key, 2) == member {
				return key + ".t0"
			}
		}
	}
	data := payload(42, 64<<10)
	writeFile(t, cl, nameAt(0), data)
	if got := readFile(t, cl, nameAt(0)); !bytes.Equal(got, data) {
		t.Fatal("post-restart write to the recovered partition corrupted")
	}
}

// TestRouterRetriesTransientTransportFaults deterministically pins the
// router's degradation contract with injected transport failures: a
// bounded burst of send errors is absorbed by retries, an unbounded
// outage surfaces as core.ErrRetryable after backoff exhaustion, and
// service resumes once the fault clears. The contract is the same
// against a lone manager and a federation: a client has one metadata
// endpoint, so a manager that is restarting delays a checkpoint either
// way and fails it neither way.
func TestRouterRetriesTransientTransportFaults(t *testing.T) {
	for _, managers := range []int{1, 2} {
		t.Run(fmt.Sprintf("managers=%d", managers), func(t *testing.T) {
			defer faultpoint.Reset()
			// Hour-scale background intervals: while the fault is armed, the
			// only wire traffic is the calls this test makes, so hit
			// accounting is deterministic.
			c, err := Start(Options{
				Managers:          managers,
				Benefactors:       2,
				BenefactorProfile: device.Unshaped(),
				Manager: manager.Config{
					HeartbeatInterval:   time.Hour,
					ReplicationInterval: time.Hour,
				},
				GCInterval: time.Hour,
				GCGrace:    time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, StripeWidth: 1})
			writeFile(t, cl, "rt.n0.t0", payload(7, 48<<10))

			// A transient two-failure burst: the router's four bounded
			// attempts absorb it and the caller never sees an error.
			if err := faultpoint.Enable("wire.send", faultpoint.Config{Mode: faultpoint.ModeError, Count: 2}); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Stat("rt.n0"); err != nil {
				t.Fatalf("stat failed despite retry budget covering the fault burst: %v", err)
			}

			// A persistent outage: retries exhaust and the failure surfaces
			// as the typed retryable sentinel, so callers can degrade
			// gracefully instead of treating it as data loss.
			if err := faultpoint.Enable("wire.send", faultpoint.Config{Mode: faultpoint.ModeError}); err != nil {
				t.Fatal(err)
			}
			_, err = cl.Stat("rt.n0")
			if err == nil {
				t.Fatal("stat succeeded during a total transport outage")
			}
			if !errors.Is(err, core.ErrRetryable) {
				t.Fatalf("outage error %v is not marked core.ErrRetryable", err)
			}

			// Fault clears; the next call dials fresh connections and succeeds.
			faultpoint.Disable("wire.send")
			if _, err := cl.Stat("rt.n0"); err != nil {
				t.Fatalf("stat failed after the fault cleared: %v", err)
			}
		})
	}
}
