package stdchk_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"
	"time"

	"stdchk"
	"stdchk/internal/proto"
)

func startCluster(t *testing.T, n int) *stdchk.Cluster {
	t.Helper()
	c, err := stdchk.StartCluster(stdchk.ClusterOptions{Benefactors: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func TestPublicAPIRoundTrip(t *testing.T) {
	c := startCluster(t, 3)
	cl, err := c.Connect(stdchk.Options{ChunkSize: 64 << 10, StripeWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := make([]byte, 1<<20+333)
	rand.New(rand.NewSource(1)).Read(data)

	w, err := cl.Create("demo.n1.t0")
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
	m := w.Metrics()
	if m.Bytes != int64(len(data)) || m.OABMBps() <= 0 || m.ASBMBps() <= 0 {
		t.Fatalf("metrics: %+v", m)
	}

	r, err := cl.Open("demo.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}

	info, err := cl.Stat("demo.n1")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 1 {
		t.Fatalf("versions: %d", len(info.Versions))
	}
	if err := cl.Delete("demo.n1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Open("demo.n1"); !errors.Is(err, stdchk.ErrNotFound) {
		t.Fatalf("open after delete: %v", err)
	}
}

func TestPublicAPIFacade(t *testing.T) {
	c := startCluster(t, 2)
	cl, err := c.Connect(stdchk.Options{ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	fs, err := cl.Mount()
	if err != nil {
		t.Fatal(err)
	}

	f, err := fs.Create("app/app.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("checkpoint"), 10000)
	if _, err := f.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Wait(); err != nil {
		t.Fatal(err)
	}

	r, err := fs.Open("app/app.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("facade round trip mismatch")
	}

	entries, err := fs.ReadDir("app")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("ReadDir: %d entries", len(entries))
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	c := startCluster(t, 2)
	cl, err := c.Connect(stdchk.Options{ChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.SetPolicy("job", stdchk.Policy{Kind: stdchk.PolicyReplace}); err != nil {
		t.Fatal(err)
	}
	got, err := cl.GetPolicy("job")
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != stdchk.PolicyReplace {
		t.Fatalf("policy = %+v", got)
	}
}

func TestPublicAPIIncrementalMetrics(t *testing.T) {
	c := startCluster(t, 2)
	cl, err := c.Connect(stdchk.Options{ChunkSize: 64 << 10, Incremental: true})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	img := make([]byte, 512<<10)
	rand.New(rand.NewSource(2)).Read(img)
	for ts := 0; ts < 2; ts++ {
		w, err := cl.Create("inc.n1.t" + string(rune('0'+ts)))
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
		if ts == 1 {
			m := w.Metrics()
			if m.Deduped != int64(len(img)) {
				t.Fatalf("identical rewrite deduped %d of %d", m.Deduped, len(img))
			}
		}
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats.StoredBytes >= stats.LogicalBytes {
		t.Fatalf("no dedup: stored %d logical %d", stats.StoredBytes, stats.LogicalBytes)
	}
}

func TestStandaloneManagerAndBenefactor(t *testing.T) {
	mgr, err := stdchk.StartManager(stdchk.ManagerConfig{HeartbeatInterval: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	ben, err := stdchk.StartBenefactor(stdchk.BenefactorConfig{
		ManagerAddr: mgr.Addr(),
		Dir:         t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ben.Close()

	deadline := time.Now().Add(5 * time.Second)
	for mgr.Stats().Counters[proto.CtrBenefactorsOnline].Value == 0 {
		if time.Now().After(deadline) {
			t.Fatal("benefactor never registered")
		}
		time.Sleep(20 * time.Millisecond)
	}

	cl, err := stdchk.Connect(stdchk.Options{ManagerAddr: mgr.Addr(), StripeWidth: 1, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data := bytes.Repeat([]byte("z"), 100<<10)
	w, err := cl.Create("solo.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Open("solo.n1.t0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	r.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("disk-backed round trip failed: %v", err)
	}
}

// TestPublicAPIFederatedCluster checks the facade's federation passthrough:
// a multi-manager cluster behaves like one metadata service — writes and
// reads route transparently, stats merge across members, and the member
// list is visible.
func TestPublicAPIFederatedCluster(t *testing.T) {
	c, err := stdchk.StartCluster(stdchk.ClusterOptions{Managers: 2, Benefactors: 3, Replication: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	if got := len(c.ManagerAddrs()); got != 2 {
		t.Fatalf("cluster reports %d manager addresses, want 2", got)
	}

	cl, err := c.Connect(stdchk.Options{ChunkSize: 64 << 10, StripeWidth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	data := make([]byte, 512<<10+99)
	rand.New(rand.NewSource(11)).Read(data)
	for _, name := range []string{"fedapi.n1.t0", "fedapi.n2.t0", "fedapi.n3.t0"} {
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
	}
	r, err := cl.Open("fedapi.n2.t0")
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	r.Close()
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("federated round trip failed: %v", err)
	}
	if n := c.Stats().Counters[proto.CtrDatasets].Value; n != 3 {
		t.Fatalf("merged cluster stats report %d datasets, want 3", n)
	}
	list, err := cl.List("fedapi")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 3 {
		t.Fatalf("merged list has %d datasets, want 3", len(list))
	}
}
