package grid

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
)

// TestReadPathCacheEndToEnd drives the whole read fast path over real
// sockets: repeat opens are served by the client chunk-map cache (zero
// RPCs for explicit versions; for latest, one MGetMap whose reply carries
// no map and builds nothing on the manager), a second client's cold open
// is one MGetMap returning the identical map, and — the correctness half —
// after a commit of version v+1 "latest" never serves stale bytes.
func TestReadPathCacheEndToEnd(t *testing.T) {
	c, err := Start(Options{
		Benefactors:       3,
		BenefactorProfile: device.Unshaped(),
		Manager:           manager.Config{ReplicationInterval: time.Hour},
		GCInterval:        time.Hour,
		GCGrace:           time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	cl1 := testClient(t, c, client.Config{StripeWidth: 2, ChunkSize: 16 << 10, Replication: 1})
	cl2 := testClient(t, c, client.Config{StripeWidth: 2, ChunkSize: 16 << 10, Replication: 1})

	write := func(name string, img []byte) {
		t.Helper()
		w, err := cl1.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(img); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	readLatestMap := func(cl *client.Client) ([]byte, *core.ChunkMap) {
		t.Helper()
		r, err := cl.Open("rp.n1")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		got, err := r.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		return got, r.Map()
	}
	readLatest := func(cl *client.Client) []byte {
		t.Helper()
		got, _ := readLatestMap(cl)
		return got
	}

	v1 := fedImage(51, 64<<10)
	write("rp.n1.t0", v1)

	if got := readLatest(cl1); !bytes.Equal(got, v1) {
		t.Fatal("cold open read wrong bytes")
	}
	base := c.Stats()

	// Warm latest re-open: one GetMap answered "unchanged" (no map built),
	// served from the client cache, and the bytes still verify (integrity
	// is checked per chunk).
	hits := cl1.MapCacheStats().Hits
	warm, warmMap := readLatestMap(cl1)
	if !bytes.Equal(warm, v1) {
		t.Fatal("warm open read wrong bytes")
	}
	after := c.Stats()
	if d := after.Ops[proto.MGetMap].Count - base.Ops[proto.MGetMap].Count; d != 1 {
		t.Fatalf("warm latest re-open issued %d getMaps, want 1", d)
	}
	if d := after.Ops[proto.MStatVersion].Count - base.Ops[proto.MStatVersion].Count; d != 0 {
		t.Fatalf("warm latest re-open issued %d statVersions, want 0", d)
	}
	if d := cl1.MapCacheStats().Hits - hits; d != 1 {
		t.Fatalf("warm latest re-open recorded %d client cache hits, want 1", d)
	}

	// A second client is cold client-side: its fetch is one GetMap, and
	// the map the manager builds for it is the one the first client holds.
	cold, coldMap := readLatestMap(cl2)
	if !bytes.Equal(cold, v1) {
		t.Fatal("second client read wrong bytes")
	}
	after2 := c.Stats()
	if d := after2.Ops[proto.MGetMap].Count - after.Ops[proto.MGetMap].Count; d != 1 {
		t.Fatalf("second client's open issued %d getMaps, want 1", d)
	}
	if !reflect.DeepEqual(coldMap, warmMap) {
		t.Fatalf("second client's map differs from the first's:\n%+v\n%+v", coldMap, warmMap)
	}

	// Version v+1: the client cache must not answer for it — a stale
	// "latest" would return v1's bytes.
	v2 := fedImage(52, 64<<10)
	write("rp.n1.t1", v2)
	beforeV2 := c.Stats()
	if got := readLatest(cl1); !bytes.Equal(got, v2) {
		t.Fatal("open after commit of v+1 served stale bytes")
	}
	s := c.Stats()
	getMaps := s.Ops[proto.MGetMap].Count - beforeV2.Ops[proto.MGetMap].Count
	statVersions := s.Ops[proto.MStatVersion].Count - beforeV2.Ops[proto.MStatVersion].Count
	if getMaps != 1 || statVersions != 0 {
		t.Fatalf("open after commit of v+1 issued %d getMaps + %d statVersions, want 1 + 0", getMaps, statVersions)
	}
	if got := readLatest(cl2); !bytes.Equal(got, v2) {
		t.Fatal("second client served stale bytes after commit of v+1")
	}

	// The explicit old version stays addressable — from cl1's cache with
	// zero additional map fetches.
	info, err := cl1.Stat("rp.n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 2 {
		t.Fatalf("chain has %d versions, want 2", len(info.Versions))
	}
	before := c.Stats()
	r, err := cl1.Open("rp.n1", client.OpenOptions{Version: info.Versions[0].Version})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	r.Close()
	if err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("explicit old-version read failed: %v", err)
	}
	afterOld := c.Stats()
	if d := afterOld.Ops[proto.MGetMap].Count - before.Ops[proto.MGetMap].Count; d != 0 {
		t.Fatalf("cached explicit-version open issued %d getMaps, want 0", d)
	}
	if d := afterOld.Ops[proto.MStatVersion].Count - before.Ops[proto.MStatVersion].Count; d != 0 {
		t.Fatalf("cached explicit-version open issued %d statVersions, want 0", d)
	}
}

// TestFederatedCachedMapEpochCheck pins the federation satellite: a
// client holding a warm cached map still sends every "latest" open's
// MGetMap to the owner member, so when that member is restarted WITHOUT
// its federation identity (a real misconfiguration: -federation flags
// dropped), the epoch check refuses the GetMap and the client surfaces
// ErrEpochMismatch instead of quietly serving its cached map.
func TestFederatedCachedMapEpochCheck(t *testing.T) {
	const managers = 2
	c := fedCluster(t, managers, 2)

	// A dataset owned by member 0 — the member we will break.
	name := ""
	for i := 0; ; i++ {
		key := fmt.Sprintf("ep.n%d", i)
		if federation.OwnerIndex(key, managers) == 0 {
			name = key
			break
		}
	}
	cl := testClient(t, c, client.Config{StripeWidth: 1, ChunkSize: 16 << 10, Replication: 1})
	img := fedImage(77, 48<<10)
	w, err := cl.Create(name + ".t0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(img); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}

	// Warm the client cache and record the explicit version.
	r, err := cl.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	ver := r.Map().Version
	r.Close()

	// Replace member 0 with a standalone manager on the same address —
	// same socket, no partition identity.
	addr := c.Managers[0].Addr()
	if err := c.Managers[0].Close(); err != nil {
		t.Fatal(err)
	}
	var repl *manager.Manager
	deadline := time.Now().Add(5 * time.Second)
	for {
		repl, err = manager.New(manager.Config{
			ListenAddr:        addr,
			HeartbeatInterval: 200 * time.Millisecond,
		})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rebind standalone replacement: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	c.Managers[0] = repl
	c.Manager = repl

	// A "latest" open must ask the owner — and the replacement, seeing a
	// partition epoch it does not carry, must refuse. The cached map is
	// NOT served.
	hits := cl.MapCacheStats().Hits
	if _, err := cl.Open(name); !errors.Is(err, core.ErrEpochMismatch) {
		t.Fatalf("latest open against de-federated owner returned %v, want ErrEpochMismatch", err)
	}
	if s := repl.Stats(); s.Ops[proto.MGetMap].Count != 1 || s.Ops[proto.MStatVersion].Count != 0 {
		t.Fatalf("the refused open reached the owner as %d getMaps + %d statVersions, want 1 + 0", s.Ops[proto.MGetMap].Count, s.Ops[proto.MStatVersion].Count)
	}
	if cl.MapCacheStats().Hits != hits {
		t.Fatal("the refused open was served from the client cache")
	}

	// An explicit-version open never consults the manager: committed
	// versions are immutable, so the cached map still serves reads (the
	// data plane is untouched by the metadata misconfiguration).
	r2, err := cl.Open(name, client.OpenOptions{Version: ver})
	if err != nil {
		t.Fatalf("explicit-version open from cache failed: %v", err)
	}
	got, err := r2.ReadAll()
	r2.Close()
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("cached explicit-version read failed: %v", err)
	}
}
