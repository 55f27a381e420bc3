package grid

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/manager"
)

// TestManagerQuorumRecovery exercises the paper's manager-failure story
// end to end: clients push chunk-map replicas to the stripe benefactors at
// commit; the manager dies and restarts empty; re-registering benefactors
// return their replicas; datasets are restored once two-thirds of a map's
// stripe concur; reads then succeed against the recovered metadata.
func TestManagerQuorumRecovery(t *testing.T) {
	c := testCluster(t, 3, manager.Config{HeartbeatInterval: 100 * time.Millisecond})
	cl := testClient(t, c, client.Config{
		ChunkSize:       32 << 10,
		StripeWidth:     3,
		PushMapReplicas: true,
	})
	data1 := payload(201, 300<<10)
	data2 := payload(202, 200<<10)
	writeFile(t, cl, "rec.n1.t0", data1)
	writeFile(t, cl, "rec.n1.t1", data2)

	if err := c.RestartManager(manager.Config{HeartbeatInterval: 100 * time.Millisecond}, true); err != nil {
		t.Fatal(err)
	}
	// Benefactors notice the restart via heartbeat rejection, re-register,
	// and the recovering manager pulls their map replicas.
	if err := c.AwaitOnline(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// A fresh client (the old one may hold stale pooled conns).
	cl2 := testClient(t, c, client.Config{ChunkSize: 32 << 10})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := cl2.Stat("rec.n1"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dataset not recovered from benefactor quorum")
		}
		time.Sleep(50 * time.Millisecond)
	}
	info, err := cl2.Stat("rec.n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 2 {
		t.Fatalf("recovered %d versions, want 2", len(info.Versions))
	}
	if got := readFile(t, cl2, "rec.n1.t0"); !bytes.Equal(got, data1) {
		t.Fatal("t0 content wrong after recovery")
	}
	if got := readFile(t, cl2, "rec.n1.t1"); !bytes.Equal(got, data2) {
		t.Fatal("t1 content wrong after recovery")
	}
	c.Manager.FinishRecovery()
	if c.Manager.Recovering() {
		t.Fatal("FinishRecovery did not clear the flag")
	}
}

// TestManagerJournalRecovery restarts the manager with a journal and no
// benefactor quorum needed.
func TestManagerJournalRecovery(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "mgr.journal")
	c := testCluster(t, 2, manager.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		JournalPath:       jpath,
	})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, StripeWidth: 2})
	data := payload(300, 256<<10)
	writeFile(t, cl, "jr.n1.t0", data)

	if err := c.RestartManager(manager.Config{
		HeartbeatInterval: 100 * time.Millisecond,
		JournalPath:       jpath,
	}, false); err != nil {
		t.Fatal(err)
	}
	if err := c.AwaitOnline(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	cl2 := testClient(t, c, client.Config{ChunkSize: 32 << 10})
	if got := readFile(t, cl2, "jr.n1"); !bytes.Equal(got, data) {
		t.Fatal("journal recovery lost data")
	}
}

// TestSessionExpiryReleasesReservations abandons a write mid-flight and
// verifies the manager's reservation GC reclaims the space.
func TestSessionExpiryReleasesReservations(t *testing.T) {
	c := testCluster(t, 1, manager.Config{
		SessionTTL:        100 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	cl := testClient(t, c, client.Config{ChunkSize: 32 << 10, ReserveQuantum: 1 << 20})
	w, err := cl.Create("abandoned.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(payload(400, 64<<10)); err != nil {
		t.Fatal(err)
	}
	// Abandon: no Close. The reservation must be GC'd.
	deadline := time.Now().Add(5 * time.Second)
	for {
		infos, err := cl.Benefactors()
		if err != nil {
			t.Fatal(err)
		}
		if len(infos) == 1 && infos[0].Reserved == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("reservation not reclaimed: %+v", infos)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := counter(t, c.Manager.Stats(), "sessions.active"); n != 0 {
		t.Fatalf("active sessions = %d after expiry", n)
	}
}
