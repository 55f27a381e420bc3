package grid

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/manager"
)

// takeoverBound is how long the hot standby may take from the primary's
// death until the client that was already connected gets answers again
// for every checkpoint it had been acknowledged: two missed 50 ms probes,
// the rebind, one 100 ms heartbeat for the benefactors to notice and
// re-register, and the quorum pull of their chunk-map replicas — 0.1 to
// 0.2 s measured, bounded generously for -race on shared cores.
const takeoverBound = 5 * time.Second

// TestHotStandbyTakeover exercises the paper's hot-standby failover
// option (§IV.A) as the application sees it: a standby watches the
// primary manager, detects its death and takes over its address in
// recovery mode; the benefactor-quorum protocol restores the metadata;
// and the client that was connected all along — not a fresh one — rides
// through on its router's transport retries, finds every checkpoint it
// was acknowledged, commits the next version of a chain and reads both
// versions back. Takeover is timed against takeoverBound.
func TestHotStandbyTakeover(t *testing.T) {
	c := testCluster(t, 3, manager.Config{HeartbeatInterval: 100 * time.Millisecond})
	cl := testClient(t, c, client.Config{
		ChunkSize:       32 << 10,
		StripeWidth:     3,
		PushMapReplicas: true,
	})
	acked := map[string][]byte{
		"ha.n1.t0": payload(600, 256<<10),
		"ha.n2.t0": payload(601, 96<<10),
		"ha.n3.t0": payload(602, 160<<10),
	}
	for name, data := range acked {
		writeFile(t, cl, name, data)
	}

	primaryAddr := c.Manager.Addr()
	standby, err := manager.NewStandby(manager.StandbyConfig{
		PrimaryAddr:   primaryAddr,
		ListenAddr:    primaryAddr, // same-host failover onto the same address
		ProbeInterval: 50 * time.Millisecond,
		FailAfter:     2,
		Manager:       manager.Config{HeartbeatInterval: 100 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer standby.Close()

	// While the primary is healthy, no takeover.
	time.Sleep(300 * time.Millisecond)
	if standby.TookOver() {
		t.Fatal("standby took over while primary was alive")
	}

	// Kill the primary. From here on only the original client is used.
	if err := c.Manager.Close(); err != nil {
		t.Fatal(err)
	}
	killed := time.Now()
	for name := range acked {
		for {
			_, err := cl.Stat(name)
			if err == nil {
				break
			}
			// Until the replacement is bound the owner never answers
			// (retryable); until quorum restores the dataset it answers
			// not-found. Anything else is a failure, not a delay.
			if !errors.Is(err, core.ErrRetryable) && !errors.Is(err, core.ErrNotFound) {
				t.Fatalf("stat %s during takeover: %v", name, err)
			}
			if time.Since(killed) > takeoverBound {
				t.Fatalf("%s not served %v after the primary died (took over: %v): %v",
					name, takeoverBound, standby.TookOver(), err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	t.Logf("takeover: every acknowledged checkpoint served again %v after the primary died", time.Since(killed).Round(time.Millisecond))
	// Hand the replacement to the cluster for cleanup bookkeeping.
	c.Manager = standby.Manager()
	c.Managers[0] = c.Manager

	// Zero acknowledged commits lost: each reads back byte-identical.
	for name, data := range acked {
		if got := readFile(t, cl, name); !bytes.Equal(got, data) {
			t.Fatalf("%s corrupted across failover", name)
		}
	}

	// The chain continues on the replacement: the same client commits the
	// next version and both versions stay readable.
	next := payload(603, 256<<10)
	writeFile(t, cl, "ha.n1.t1", next)
	info, err := cl.Stat("ha.n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 2 {
		t.Fatalf("ha.n1 has %d versions after the post-takeover commit, want 2: %+v", len(info.Versions), info.Versions)
	}
	for i, want := range [][]byte{acked["ha.n1.t0"], next} {
		r, err := cl.Open("ha.n1", client.OpenOptions{Version: info.Versions[i].Version})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("ha.n1 version %d (%s) differs from what was written", info.Versions[i].Version, info.Versions[i].Name)
		}
	}
}

// TestStandbyCloseBeforeTakeover verifies clean shutdown of an idle
// standby.
func TestStandbyCloseBeforeTakeover(t *testing.T) {
	c := testCluster(t, 1, manager.Config{})
	standby, err := manager.NewStandby(manager.StandbyConfig{
		PrimaryAddr:   c.Manager.Addr(),
		ListenAddr:    "127.0.0.1:0",
		ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
	if err := standby.Close(); err != nil {
		t.Fatal(err)
	}
}
