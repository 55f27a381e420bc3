package grid

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
)

// fedCluster starts a federated in-process deployment.
func fedCluster(t *testing.T, managers, benefactors int) *Cluster {
	t.Helper()
	c, err := Start(Options{
		Managers:          managers,
		Benefactors:       benefactors,
		BenefactorProfile: device.Unshaped(),
		Manager:           manager.Config{ReplicationInterval: time.Hour},
		GCInterval:        time.Hour, // GC only when the test asks
		GCGrace:           time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func fedImage(seed int64, size int) []byte {
	img := make([]byte, size)
	rand.New(rand.NewSource(seed)).Read(img)
	return img
}

// TestFederatedGrid is the federation acceptance test over real sockets:
// N managers each owning a namespace partition, benefactors registered
// with every member, and clients speaking through the partition router.
// Datasets must land on exactly the member the partition function names,
// read back intact from any client, list/stat/delete must work through
// the merged view, and a client that dials the wrong member directly must
// be refused by the partition filter.
func TestFederatedGrid(t *testing.T) {
	const managers, benefactors, datasets = 3, 4, 9
	c := fedCluster(t, managers, benefactors)

	// Every member must see the whole donor pool.
	for i, m := range c.Managers {
		if n := counter(t, m.Stats(), "benefactors.online"); n != benefactors {
			t.Fatalf("member %d sees %d/%d benefactors", i, n, benefactors)
		}
	}

	cl := testClient(t, c, client.Config{StripeWidth: 2, ChunkSize: 32 << 10, Replication: 1, Incremental: true})
	images := make(map[string][]byte, datasets)
	for i := 0; i < datasets; i++ {
		name := fmt.Sprintf("fedgrid.n%d.t0", i)
		img := fedImage(int64(1000+i), 96<<10)
		images[name] = img
		w, err := cl.Create(name)
		if err != nil {
			t.Fatalf("create %s: %v", name, err)
		}
		if _, err := w.Write(img); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if err := w.Wait(); err != nil {
			t.Fatalf("wait %s: %v", name, err)
		}
	}

	// The namespace must be partitioned exactly as the shared partition
	// function says: each member holds its own datasets and nothing else.
	wantPer := make([]int, managers)
	for i := 0; i < datasets; i++ {
		wantPer[federation.OwnerIndex(fmt.Sprintf("fedgrid.n%d", i), managers)]++
	}
	var total int64
	for i, m := range c.Managers {
		st := m.Stats()
		n := counter(t, st, "catalog.datasets")
		if n != int64(wantPer[i]) {
			t.Fatalf("member %d holds %d datasets, partition function says %d", i, n, wantPer[i])
		}
		if st.Federation == nil || st.Federation.MemberIndex != i || len(st.Federation.Members) != managers {
			t.Fatalf("member %d stats carry federation info %+v", i, st.Federation)
		}
		total += n
	}
	if total != datasets {
		t.Fatalf("federation holds %d datasets, want %d", total, datasets)
	}
	// The partitioning must actually spread: with 9 datasets over 3
	// members, at least two members own something.
	busy := 0
	for _, n := range wantPer {
		if n > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("all datasets hashed to one member (%v); partition test is vacuous", wantPer)
	}

	// Round-trip through the router from a fresh client.
	rcl := testClient(t, c, client.Config{StripeWidth: 2, ChunkSize: 32 << 10})
	for name, img := range images {
		r, err := rcl.Open(name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		got, err := r.ReadAll()
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, img) {
			t.Fatalf("%s read back %d bytes, mismatch", name, len(got))
		}
	}

	// Merged list and per-dataset stat through the router.
	list, err := rcl.List("fedgrid")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != datasets {
		t.Fatalf("merged list has %d datasets, want %d", len(list), datasets)
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Name >= list[i].Name {
			t.Fatalf("merged list unsorted at %d: %q >= %q", i, list[i-1].Name, list[i].Name)
		}
	}
	info, err := rcl.Stat("fedgrid.n0")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Versions) != 1 || info.Versions[0].FileSize != 96<<10 {
		t.Fatalf("stat fedgrid.n0: %+v", info)
	}

	// Merged stats through the router-backed client.
	stats, err := rcl.ManagerStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds, bs := counter(t, stats, "catalog.datasets"), counter(t, stats, "benefactors.online"); ds != datasets || bs != benefactors {
		t.Fatalf("merged stats: datasets %d benefactors %d", ds, bs)
	}
	if stats.Federation == nil || len(stats.Federation.Members) != managers {
		t.Fatalf("merged stats missing federation info: %+v", stats.Federation)
	}

	// Version chains stay member-local: a second timestep of n0 routes to
	// the same member, and incremental dedup against version 1 lands.
	img2 := append([]byte(nil), images["fedgrid.n0.t0"]...)
	copy(img2[4<<10:], fedImage(7777, 8<<10)) // mutate a slice in place
	w, err := cl.Create("fedgrid.n0.t1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(img2); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatal(err)
	}
	if m := w.Metrics(); m.Deduped == 0 {
		t.Fatalf("second timestep deduped %d bytes; version chain not member-local?", m.Deduped)
	}

	// Delete through the router removes the dataset from its owner.
	if err := rcl.Delete("fedgrid.n1", 0); err != nil {
		t.Fatal(err)
	}
	list, err = rcl.List("fedgrid")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != datasets-1 {
		t.Fatalf("after delete, merged list has %d datasets, want %d", len(list), datasets-1)
	}

	// The partition filter refuses a client that dials the wrong member
	// directly (bypassing the router).
	ownerOfN2 := federation.OwnerIndex("fedgrid.n2", managers)
	wrong := (ownerOfN2 + 1) % managers
	direct, err := client.New(client.Config{ManagerAddr: c.Managers[wrong].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if _, err := direct.Open("fedgrid.n2"); !errors.Is(err, core.ErrNotOwner) {
		t.Fatalf("wrong member served fedgrid.n2: %v, want ErrNotOwner", err)
	}
	ownerDirect, err := client.New(client.Config{ManagerAddr: c.Managers[ownerOfN2].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer ownerDirect.Close()
	r, err := ownerDirect.Open("fedgrid.n2")
	if err != nil {
		t.Fatalf("owner refused fedgrid.n2: %v", err)
	}
	r.Close()
}

// TestFederatedGCIntersection checks the federation's conservative
// garbage collection: a chunk physically shared by datasets on two
// different members survives the deletion of either one — the benefactor
// deletes it only when no member references it.
func TestFederatedGCIntersection(t *testing.T) {
	const managers = 2
	c := fedCluster(t, managers, 2)

	// Two dataset names owned by different members.
	nameAt := func(member int) string {
		for i := 0; ; i++ {
			key := fmt.Sprintf("gcx.n%d", i)
			if federation.OwnerIndex(key, managers) == member {
				return key + ".t0"
			}
		}
	}
	nameA, nameB := nameAt(0), nameAt(1)
	img := fedImage(9, 64<<10) // identical content: same chunk IDs on both members

	cl := testClient(t, c, client.Config{StripeWidth: 1, ChunkSize: 16 << 10, Replication: 1})
	for _, name := range []string{nameA, nameB} {
		w, err := cl.Create(name)
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

	collect := func() int {
		t.Helper()
		time.Sleep(5 * time.Millisecond) // let the GC grace lapse
		total := 0
		for _, b := range c.Benefactors {
			n, err := b.CollectGarbage()
			if err != nil {
				t.Fatal(err)
			}
			total += n
		}
		return total
	}

	// Delete A: B's member still references the chunks, so the
	// intersection keeps them and B stays readable.
	if err := cl.Delete(nameA, 0); err != nil {
		t.Fatal(err)
	}
	if n := collect(); n != 0 {
		t.Fatalf("GC deleted %d chunks while member 1 still references them", n)
	}
	r, err := cl.Open(nameB)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	r.Close()
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("dataset B corrupted after A's deletion and GC: %v", err)
	}

	// Delete B too: now no member references the chunks and GC reaps.
	if err := cl.Delete(nameB, 0); err != nil {
		t.Fatal(err)
	}
	if n := collect(); n == 0 {
		t.Fatal("GC reclaimed nothing after both datasets were deleted")
	}
}

// TestFederatedMemberDownDegradation pins the federation's degraded mode:
// with one member dead, benefactors keep heartbeating the survivors
// without falling into a re-register loop (re-registration clears live
// reservations — the bug this guards against), open write sessions on
// surviving members complete, and only the dead member's partition is
// unavailable.
func TestFederatedMemberDownDegradation(t *testing.T) {
	const managers = 2
	c := fedCluster(t, managers, 2)
	nameAt := func(member int) string {
		for i := 0; ; i++ {
			key := fmt.Sprintf("deg.n%d", i)
			if federation.OwnerIndex(key, managers) == member {
				return key + ".t0"
			}
		}
	}

	cl := testClient(t, c, client.Config{StripeWidth: 2, ChunkSize: 32 << 10, Replication: 1})
	// Open a write session on member 0's partition: its alloc reserves
	// benefactor space in member 0's registry.
	w, err := cl.Create(nameAt(0))
	if err != nil {
		t.Fatal(err)
	}

	reservedAt := func(m *manager.Manager) int64 {
		t.Helper()
		var resp proto.BenefactorsResp
		if err := m.Invoke(proto.MBenefactors, nil, &resp); err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, b := range resp.Benefactors {
			total += b.Reserved
		}
		return total
	}
	if reservedAt(c.Managers[0]) == 0 {
		t.Fatal("open session reserved nothing on member 0")
	}

	// Kill member 1 and sit through several announce rounds (heartbeat
	// interval is 200ms in test clusters).
	if err := c.Managers[1].Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(time.Second)

	// The dead member must not have pushed the benefactors into global
	// re-registration: member 0 still holds the session's reservations.
	if got := reservedAt(c.Managers[0]); got == 0 {
		t.Fatal("member 1's death wiped live reservations on member 0 (re-register loop)")
	}

	// The open session completes and reads back through the router.
	img := fedImage(21, 64<<10)
	if _, err := w.Write(img); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Wait(); err != nil {
		t.Fatalf("write on surviving member failed: %v", err)
	}
	r, err := cl.Open(nameAt(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAll()
	r.Close()
	if err != nil || !bytes.Equal(got, img) {
		t.Fatalf("read on surviving member failed: %v", err)
	}

	// The dead member's partition is unavailable — and says so.
	if _, err := cl.Create(nameAt(1)); err == nil {
		t.Fatal("create on the dead member's partition succeeded")
	}
}
