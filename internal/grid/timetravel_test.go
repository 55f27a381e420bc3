package grid

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/federation"
)

// TestFederatedTimeTravel is the acceptance test for the version query
// plane and incremental restore over real sockets: two checkpoint
// versions with partial chunk sharing, written by distinct writer
// identities, queried for history and diff both through the federation
// router AND through a direct connection to the owning member (the
// answers must be identical), then restored both ways — the incremental
// restore must fetch no more than the diff plus one chunk of slack and
// produce output byte-identical to the full restore.
func TestFederatedTimeTravel(t *testing.T) {
	const (
		managers  = 2
		chunkSize = 32 << 10
		nChunks   = 8
		imageSize = nChunks * chunkSize
	)
	c := fedCluster(t, managers, 6)

	clA := testClient(t, c, client.Config{
		StripeWidth: 2, ChunkSize: chunkSize, Replication: 1, Writer: "rank0",
	})
	clB := testClient(t, c, client.Config{
		StripeWidth: 2, ChunkSize: chunkSize, Replication: 1, Writer: "rank1",
	})

	// Version 1: a random image. Version 2: same image with chunks 1, 4,
	// and 7 rewritten — fixed chunking keeps the other five chunks
	// byte-identical, so the expected diff is exactly those three spans.
	base := fedImage(4242, imageSize)
	mutated := append([]byte(nil), base...)
	changedChunks := []int{1, 4, 7}
	for _, ch := range changedChunks {
		off := ch * chunkSize
		for j := off; j < off+chunkSize; j++ {
			mutated[j] ^= 0xA5
		}
	}
	wantDiffBytes := int64(len(changedChunks) * chunkSize)

	write := func(cl *client.Client, name string, img []byte) {
		t.Helper()
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
	write(clA, "tt.n0.t0", base)
	time.Sleep(10 * time.Millisecond) // distinct commit timestamps for AsOf
	write(clB, "tt.n0.t1", mutated)

	// History through the router: two versions, oldest first, with the
	// copy-on-write sharing and writer identity the commits declared.
	hist, err := clA.History("tt.n0")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Versions) != 2 {
		t.Fatalf("history has %d versions, want 2", len(hist.Versions))
	}
	v1, v2 := hist.Versions[0], hist.Versions[1]
	if v1.Name != "tt.n0.t0" || v2.Name != "tt.n0.t1" {
		t.Fatalf("history names %q, %q", v1.Name, v2.Name)
	}
	if v1.Writer != "rank0" || v2.Writer != "rank1" {
		t.Fatalf("history writers %q, %q, want rank0, rank1", v1.Writer, v2.Writer)
	}
	if v1.FileSize != imageSize || v2.FileSize != imageSize {
		t.Fatalf("history sizes %d, %d, want %d", v1.FileSize, v2.FileSize, imageSize)
	}
	if v1.Chunks != nChunks || v2.Chunks != nChunks {
		t.Fatalf("history chunk counts %d, %d, want %d", v1.Chunks, v2.Chunks, nChunks)
	}
	if v1.SharedChunks != 0 || v1.SharedBytes != 0 {
		t.Fatalf("first version reports sharing: %d chunks, %d bytes", v1.SharedChunks, v1.SharedBytes)
	}
	wantShared := nChunks - len(changedChunks)
	if v2.SharedChunks != wantShared || v2.SharedBytes != int64(wantShared*chunkSize) {
		t.Fatalf("v2 shares %d chunks / %d bytes with v1, want %d / %d",
			v2.SharedChunks, v2.SharedBytes, wantShared, wantShared*chunkSize)
	}
	if v2.NewBytes != wantDiffBytes {
		t.Fatalf("v2 added %d new bytes, want %d", v2.NewBytes, wantDiffBytes)
	}
	if !v2.CommittedAt.After(v1.CommittedAt) {
		t.Fatalf("commit times not ordered: %v then %v", v1.CommittedAt, v2.CommittedAt)
	}

	// Diff through the router: exactly the three rewritten chunk spans,
	// sorted and non-overlapping.
	diff, err := clA.Diff("tt.n0", v1.Version, v2.Version)
	if err != nil {
		t.Fatal(err)
	}
	if diff.From != v1.Version || diff.To != v2.Version {
		t.Fatalf("diff resolved %d..%d, want %d..%d", diff.From, diff.To, v1.Version, v2.Version)
	}
	if diff.DiffBytes != wantDiffBytes {
		t.Fatalf("diff reports %d changed bytes, want %d", diff.DiffBytes, wantDiffBytes)
	}
	if len(diff.Ranges) != len(changedChunks) {
		t.Fatalf("diff has %d ranges, want %d: %+v", len(diff.Ranges), len(changedChunks), diff.Ranges)
	}
	for i, ch := range changedChunks {
		r := diff.Ranges[i]
		if r.Offset != int64(ch*chunkSize) || r.Length != chunkSize {
			t.Fatalf("range %d is [%d,+%d), want [%d,+%d)", i, r.Offset, r.Length, ch*chunkSize, chunkSize)
		}
	}

	// The same queries through a direct connection to the owning member
	// (bypassing the router) must return identical answers — the query
	// plane is owner-routed, so the router adds routing, not semantics.
	owner := federation.OwnerIndex("tt.n0", managers)
	direct, err := client.New(client.Config{ManagerAddr: c.Managers[owner].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	dhist, err := direct.History("tt.n0")
	if err != nil {
		t.Fatalf("history via direct owner connection: %v", err)
	}
	if !reflect.DeepEqual(hist, dhist) {
		t.Fatalf("history differs between router and direct owner:\nrouter: %+v\ndirect: %+v", hist, dhist)
	}
	ddiff, err := direct.Diff("tt.n0", v1.Version, v2.Version)
	if err != nil {
		t.Fatalf("diff via direct owner connection: %v", err)
	}
	if !reflect.DeepEqual(diff, ddiff) {
		t.Fatalf("diff differs between router and direct owner:\nrouter: %+v\ndirect: %+v", diff, ddiff)
	}

	// AsOf resolution: an as-of open pinned to v1's commit instant must
	// serve v1's bytes even though v2 is newer.
	readAll := func(opts ...client.OpenOptions) ([]byte, *client.Reader) {
		t.Helper()
		r, err := clA.Open("tt.n0", opts...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.ReadAll()
		if err != nil {
			r.Close()
			t.Fatal(err)
		}
		return got, r
	}
	beforeAsOf := c.Stats()
	asOfGot, asOfR := readAll(client.OpenOptions{AsOf: v1.CommittedAt})
	asOfR.Close()
	if !bytes.Equal(asOfGot, base) {
		t.Fatal("as-of open pinned to v1's commit time did not serve v1's bytes")
	}
	// The instant must resolve manager-side, under the dataset stripe:
	// one lightweight MStatVersion probe and the map fetch — no MHistory
	// walk.
	afterAsOf := c.Stats()
	if d := afterAsOf.Histories - beforeAsOf.Histories; d != 0 {
		t.Fatalf("as-of open issued %d MHistory RPCs, want 0 (server-side resolution)", d)
	}
	if d := afterAsOf.StatVersions - beforeAsOf.StatVersions; d != 1 {
		t.Fatalf("as-of open issued %d MStatVersion probes, want 1", d)
	}
	// An instant older than v1 is not-found from that same one probe: the
	// refusal is the owner's answer, not a cue to walk the history.
	if _, err := clA.Open("tt.n0", client.OpenOptions{AsOf: v1.CommittedAt.Add(-time.Nanosecond)}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("as-of open older than v1: err = %v, want core.ErrNotFound", err)
	}
	afterOld := c.Stats()
	if d := afterOld.Histories - afterAsOf.Histories; d != 0 {
		t.Fatalf("as-of open older than v1 issued %d MHistory RPCs, want 0", d)
	}
	if d := afterOld.StatVersions - afterAsOf.StatVersions; d != 1 {
		t.Fatalf("as-of open older than v1 issued %d MStatVersion probes, want 1", d)
	}

	// Full restore of v2, then incremental restore of v2 against a local
	// v1 baseline: identical output, but the incremental fetch must stay
	// within the diff plus one chunk of slack, the remainder served as
	// hash-verified local copies.
	fullGot, fullR := readAll(client.OpenOptions{Version: v2.Version})
	fullFetched, fullLocal := fullR.BytesFetched(), fullR.BytesLocal()
	fullR.Close()
	if !bytes.Equal(fullGot, mutated) {
		t.Fatal("full restore is not byte-identical to the committed image")
	}
	if fullFetched != imageSize || fullLocal != 0 {
		t.Fatalf("full restore fetched %d / local %d, want %d / 0", fullFetched, fullLocal, imageSize)
	}

	incGot, incR := readAll(client.OpenOptions{
		Version: v2.Version, Baseline: v1.Version, BaselineData: base,
	})
	incFetched, incLocal := incR.BytesFetched(), incR.BytesLocal()
	incR.Close()
	if !bytes.Equal(incGot, fullGot) {
		t.Fatal("incremental restore is not byte-identical to the full restore")
	}
	if max := diff.DiffBytes + chunkSize; incFetched > max {
		t.Fatalf("incremental restore fetched %d bytes, want <= diff %d + one chunk slack (%d)",
			incFetched, diff.DiffBytes, max)
	}
	if incFetched+incLocal != imageSize {
		t.Fatalf("incremental restore fetched %d + local %d != file size %d", incFetched, incLocal, imageSize)
	}
	if incLocal == 0 {
		t.Fatal("incremental restore reused no baseline bytes")
	}

	// A diff against a stale epoch through the member that does NOT own
	// the dataset must be refused — the query plane honors the same
	// partition filter as the data plane.
	wrong, err := client.New(client.Config{ManagerAddr: c.Managers[(owner+1)%managers].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer wrong.Close()
	if _, err := wrong.History("tt.n0"); err == nil {
		t.Fatal("non-owning member answered a history query for a dataset it does not own")
	}
	if _, err := wrong.Diff("tt.n0", v1.Version, v2.Version); err == nil {
		t.Fatal("non-owning member answered a diff query for a dataset it does not own")
	}
}
