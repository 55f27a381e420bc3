package client

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"stdchk/internal/core"
	"stdchk/internal/namespace"
	"stdchk/internal/proto"
)

// fakeMetadata is an in-memory ManagerEndpoint that counts the RPCs the
// client issues — the cache tests' ground truth for "zero getMap RPCs".
type fakeMetadata struct {
	getMaps      int
	statVersions int
	deletes      int
	// unchanged counts GetMap replies that carried no map because the
	// name resolved to the request's Have; reqs records every request.
	unchanged int
	reqs      []proto.GetMapReq
	// chains maps a dataset key to its committed versions in order.
	chains map[string][]*core.ChunkMap
	// getMapErr, when set, fails GetMap (the restarted-owner /
	// epoch-mismatch shape).
	getMapErr error
	// beforeReply, when set, runs inside GetMap before it answers.
	beforeReply func(proto.GetMapReq)
}

func newFakeMetadata() *fakeMetadata {
	return &fakeMetadata{chains: make(map[string][]*core.ChunkMap)}
}

// commit appends a new version to a dataset's chain and returns it.
func (f *fakeMetadata) commit(dataset string, ver core.VersionID, locs []core.NodeID) *core.ChunkMap {
	m := &core.ChunkMap{
		Dataset:   1,
		Version:   ver,
		FileSize:  64,
		ChunkSize: 64,
		Chunks:    []core.ChunkRef{{Index: 0, ID: core.HashChunk([]byte(fmt.Sprintf("%s@%d", dataset, ver))), Size: 64}},
		Locations: [][]core.NodeID{locs},
	}
	f.chains[dataset] = append(f.chains[dataset], m)
	return m
}

func (f *fakeMetadata) fileName(dataset string, m *core.ChunkMap) string {
	return fmt.Sprintf("%s.t%d", dataset, m.Version)
}

// resolve finds the version name (a dataset key or a full file name)
// selects, as the manager's catalog does; ver, when set, wins.
func (f *fakeMetadata) resolve(name string, ver core.VersionID) (string, *core.ChunkMap) {
	dataset := namespace.DatasetOf(name)
	chain := f.chains[dataset]
	for i := len(chain) - 1; i >= 0; i-- {
		m := chain[i]
		switch {
		case ver != 0 && m.Version != ver:
		case ver == 0 && name != dataset && f.fileName(dataset, m) != name:
		default:
			return f.fileName(dataset, m), m
		}
	}
	return "", nil
}

// Call serves the ops the cache tests drive; the rest are not implemented.
func (f *fakeMetadata) Call(op, name string, req, resp interface{}) error {
	switch op {
	case proto.MGetMap:
		return f.getMap(*req.(*proto.GetMapReq), resp.(*proto.GetMapResp))
	case proto.MStatVersion:
		return f.statVersion(*req.(*proto.StatVersionReq), resp.(*proto.StatVersionResp))
	case proto.MDelete:
		f.deletes++
		delete(f.chains, req.(*proto.DeleteReq).Name)
		return nil
	case proto.MHistory:
		return f.history(*req.(*proto.HistoryReq), resp.(*proto.HistoryResp))
	case proto.MStat, proto.MReplStatus:
		return core.ErrNotFound
	case proto.MPolicySet, proto.MPolicyGet:
		return nil
	}
	return errors.New("fake: not implemented")
}

func (f *fakeMetadata) getMap(req proto.GetMapReq, resp *proto.GetMapResp) error {
	f.getMaps++
	f.reqs = append(f.reqs, req)
	if f.beforeReply != nil {
		f.beforeReply(req)
	}
	if f.getMapErr != nil {
		return f.getMapErr
	}
	name, m := f.resolve(req.Name, req.Version)
	if m == nil {
		return core.ErrNotFound
	}
	*resp = proto.GetMapResp{Name: name, Version: m.Version}
	if m.Version == req.Have {
		f.unchanged++
		return nil
	}
	resp.Map = m.Clone()
	return nil
}

func (f *fakeMetadata) statVersion(req proto.StatVersionReq, resp *proto.StatVersionResp) error {
	f.statVersions++
	chain := f.chains[req.Name]
	if len(chain) == 0 {
		return core.ErrNotFound
	}
	m := chain[len(chain)-1]
	*resp = proto.StatVersionResp{Name: f.fileName(req.Name, m), Dataset: m.Dataset, Version: m.Version}
	return nil
}

func (f *fakeMetadata) history(req proto.HistoryReq, resp *proto.HistoryResp) error {
	chain := f.chains[req.Name]
	if len(chain) == 0 {
		return core.ErrNotFound
	}
	for _, m := range chain {
		resp.Versions = append(resp.Versions, proto.VersionLineage{
			Version: m.Version, Name: f.fileName(req.Name, m),
			FileSize: m.FileSize, CommittedAt: m.CreatedAt, Chunks: len(m.Chunks),
		})
	}
	return nil
}

func (f *fakeMetadata) GetMaps(req proto.GetMapsReq) (proto.GetMapsResp, error) {
	var resp proto.GetMapsResp
	for _, name := range req.Names {
		chain := f.chains[name]
		if len(chain) == 0 {
			continue // best-effort: unknown names are skipped
		}
		m := chain[len(chain)-1]
		resp.Maps = append(resp.Maps, proto.NamedMap{Name: f.fileName(name, m), Map: m})
	}
	return resp, nil
}
func (f *fakeMetadata) List(string) ([]core.DatasetInfo, error) { return nil, nil }
func (f *fakeMetadata) PolicyDryRun(proto.PolicyDryRunReq) (proto.PolicyDryRunResp, error) {
	return proto.PolicyDryRunResp{}, nil
}
func (f *fakeMetadata) ManagerStats() (proto.ManagerStats, error) {
	return proto.ManagerStats{}, nil
}
func (f *fakeMetadata) Benefactors() ([]core.BenefactorInfo, error) { return nil, nil }
func (f *fakeMetadata) Close() error                                { return nil }

// cacheTestClient builds a client over f whose chunk-map cache holds up
// to entries maps: 0 keeps the built-in size, negative disables it.
func cacheTestClient(t *testing.T, f *fakeMetadata, entries int) *Client {
	t.Helper()
	c, err := New(Config{Endpoint: f})
	if err != nil {
		t.Fatal(err)
	}
	if entries != 0 {
		c.maps = newMapCache(entries)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestMapCacheExplicitVersionZeroRPCs: once a version's map is cached,
// re-opening that explicit version issues no manager RPC of any kind —
// committed versions are immutable, so there is nothing to revalidate.
func TestMapCacheExplicitVersionZeroRPCs(t *testing.T) {
	f := newFakeMetadata()
	f.commit("app.n1", 7, []core.NodeID{"b1:1"})
	c := cacheTestClient(t, f, 0)

	r, err := c.Open("app.n1", OpenOptions{Version: 7})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	if f.getMaps != 1 || f.statVersions != 0 {
		t.Fatalf("cold open: %d getMaps, %d statVersions; want 1, 0", f.getMaps, f.statVersions)
	}
	for i := 0; i < 3; i++ {
		r, err := c.Open("app.n1", OpenOptions{Version: 7})
		if err != nil {
			t.Fatal(err)
		}
		if r.Name() != "app.n1.t7" || r.Size() != 64 {
			t.Fatalf("cached open: name %q size %d", r.Name(), r.Size())
		}
		r.Close()
	}
	if f.getMaps != 1 || f.statVersions != 0 {
		t.Fatalf("warm explicit-version opens issued RPCs: %d getMaps, %d statVersions; want 1, 0",
			f.getMaps, f.statVersions)
	}
	if s := c.MapCacheStats(); s.Hits != 3 || s.Misses != 1 {
		t.Fatalf("cache stats %+v, want 3 hits / 1 miss", s)
	}
}

// TestMapCacheLatestRevalidation: every "latest" open is exactly one
// GetMap and never a StatVersion. Cold, it carries no Have and gets the
// full map; warm, it names the cached version, the reply carries no map
// and the open is served from the cache; after a commit of version v+1
// the one GetMap brings the full v+1 map instead of the stale one. A
// cached explicit version costs no RPC at all.
func TestMapCacheLatestRevalidation(t *testing.T) {
	f := newFakeMetadata()
	f.commit("app.n1", 1, []core.NodeID{"b1:1"})
	c := cacheTestClient(t, f, 0)
	counts := func(stage string, getMaps, unchanged int) {
		t.Helper()
		if f.getMaps != getMaps || f.unchanged != unchanged || f.statVersions != 0 {
			t.Fatalf("%s: %d getMaps (%d unchanged), %d statVersions; want %d (%d unchanged), 0",
				stage, f.getMaps, f.unchanged, f.statVersions, getMaps, unchanged)
		}
	}

	if _, err := c.Open("app.n1"); err != nil {
		t.Fatal(err)
	}
	counts("cold latest open", 1, 0)
	if f.reqs[0].Have != 0 {
		t.Fatalf("cold latest open offered Have %d, want 0", f.reqs[0].Have)
	}
	r, err := c.Open("app.n1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Map().Version != 1 {
		t.Fatalf("warm latest open served version %d, want 1", r.Map().Version)
	}
	r.Close()
	counts("warm latest open", 2, 1)
	if s := c.MapCacheStats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("warm latest open: cache stats %+v, want 1 hit / 0 misses", s)
	}

	// Version v+1 commits elsewhere: the one GetMap must bring its map,
	// not let the client serve the stale one.
	f.commit("app.n1", 2, []core.NodeID{"b2:1"})
	r, err = c.Open("app.n1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Map().Version != 2 {
		t.Fatalf("post-commit latest open served version %d, want 2", r.Map().Version)
	}
	r.Close()
	counts("post-commit open", 3, 1)
	if f.reqs[2].Have != 1 {
		t.Fatalf("post-commit open offered Have %d, want the cached 1", f.reqs[2].Have)
	}
	// The superseded version remains cached and servable explicitly.
	if _, err := c.Open("app.n1", OpenOptions{Version: 1}); err != nil {
		t.Fatal(err)
	}
	counts("cached explicit-version open", 3, 1)
}

// TestMapCacheHaveOrder: a latest open offers the version cached under
// the very file name it opens, else the dataset's newest cached version,
// else nothing.
func TestMapCacheHaveOrder(t *testing.T) {
	f := newFakeMetadata()
	for v := core.VersionID(1); v <= 3; v++ {
		f.commit("app.n1", v, []core.NodeID{"b1:1"})
	}
	c := cacheTestClient(t, f, 0)
	for _, v := range []core.VersionID{1, 2} {
		if _, err := c.Open("app.n1", OpenOptions{Version: v}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name string
		have core.VersionID
	}{
		{"app.n1.t1", 1}, // its own entry, although version 2 is newer
		{"app.n1", 2},    // no entry by that name: the newest cached
		{"app.n1.t3", 3}, // the previous open cached version 3
		{"other.n1", 0},  // nothing of the dataset cached
	} {
		before := len(f.reqs)
		c.Open(tc.name)
		if len(f.reqs) != before+1 || f.reqs[before].Have != tc.have {
			t.Fatalf("open %s sent %+v, want one GetMap with Have %d", tc.name, f.reqs[before:], tc.have)
		}
	}
}

// TestMapCacheEvictedBeforeUnchangedReply: when the entry a latest open
// offered is evicted before the owner's "unchanged" reply arrives, the
// client refetches that exact version — one more GetMap, by version, no
// Have — and serves it.
func TestMapCacheEvictedBeforeUnchangedReply(t *testing.T) {
	f := newFakeMetadata()
	f.commit("app.n1", 1, []core.NodeID{"b1:1"})
	c := cacheTestClient(t, f, 0)
	if _, err := c.Open("app.n1"); err != nil {
		t.Fatal(err)
	}
	f.beforeReply = func(req proto.GetMapReq) {
		if req.Have != 0 {
			c.InvalidateMaps("app.n1")
		}
	}
	r, err := c.Open("app.n1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Map().Version != 1 {
		t.Fatalf("served version %d, want 1", r.Map().Version)
	}
	want := []proto.GetMapReq{{Name: "app.n1"}, {Name: "app.n1", Have: 1}, {Name: "app.n1", Version: 1}}
	if !reflect.DeepEqual(f.reqs, want) || f.unchanged != 1 {
		t.Fatalf("requests %+v (%d unchanged replies), want %+v (1 unchanged)", f.reqs, f.unchanged, want)
	}
}

// TestMapCacheRevalidationErrorDoesNotServeCache: when the warm open's
// GetMap fails — a federation owner restarted without its partition
// identity answers ErrEpochMismatch — the open must fail rather than
// fall back to the cached map.
func TestMapCacheRevalidationErrorDoesNotServeCache(t *testing.T) {
	f := newFakeMetadata()
	f.commit("app.n1", 1, []core.NodeID{"b1:1"})
	c := cacheTestClient(t, f, 0)
	if _, err := c.Open("app.n1"); err != nil {
		t.Fatal(err)
	}
	f.getMapErr = core.ErrEpochMismatch
	if _, err := c.Open("app.n1"); !errors.Is(err, core.ErrEpochMismatch) {
		t.Fatalf("open with failing GetMap returned %v, want ErrEpochMismatch", err)
	}
	if s := c.MapCacheStats(); s.Hits != 0 {
		t.Fatalf("failed open recorded %d cache hits: the cached map was served", s.Hits)
	}
}

// TestMapCacheDeleteInvalidates: a local delete drops the dataset's
// cached maps, so a later explicit-version open consults the manager
// (and fails) instead of serving the deleted version from cache.
func TestMapCacheDeleteInvalidates(t *testing.T) {
	f := newFakeMetadata()
	f.commit("app.n1", 1, []core.NodeID{"b1:1"})
	c := cacheTestClient(t, f, 0)
	if _, err := c.Open("app.n1", OpenOptions{Version: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete("app.n1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open("app.n1", OpenOptions{Version: 1}); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("open of deleted version returned %v, want ErrNotFound", err)
	}
	if s := c.MapCacheStats(); s.Invalidations != 1 {
		t.Fatalf("delete recorded %d invalidations, want 1", s.Invalidations)
	}
}

// TestMapCacheDisabled: with the cache off every open is one full getMap,
// never an "unchanged" reply.
func TestMapCacheDisabled(t *testing.T) {
	f := newFakeMetadata()
	f.commit("app.n1", 1, []core.NodeID{"b1:1"})
	c := cacheTestClient(t, f, -1)
	for i := 0; i < 3; i++ {
		r, err := c.Open("app.n1")
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	if f.getMaps != 3 || f.statVersions != 0 {
		t.Fatalf("disabled cache: %d getMaps, %d statVersions; want 3, 0", f.getMaps, f.statVersions)
	}
}

// TestMapCacheLRUEviction: the cache holds at most its capacity in maps;
// the least recently used falls out first.
func TestMapCacheLRUEviction(t *testing.T) {
	f := newFakeMetadata()
	for d := 0; d < 3; d++ {
		f.commit(fmt.Sprintf("ds%d.n1", d), core.VersionID(d+1), []core.NodeID{"b1:1"})
	}
	c := cacheTestClient(t, f, 2)
	open := func(d int) {
		t.Helper()
		r, err := c.Open(fmt.Sprintf("ds%d.n1", d), OpenOptions{Version: core.VersionID(d + 1)})
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	open(0)
	open(1)
	open(0) // refresh ds0; ds1 is now LRU
	open(2) // evicts ds1
	before := f.getMaps
	open(0)
	if f.getMaps != before {
		t.Fatal("ds0 should still be cached")
	}
	open(1)
	if f.getMaps != before+1 {
		t.Fatal("ds1 should have been evicted and refetched")
	}
}

// TestReaderInstallTimeReplicaOrder: the reader computes its per-chunk
// replica preference order once at map-install time — rotated by chunk
// index so readers spread over the stripe — and never mutates the
// (possibly cache-shared) map's own location lists.
func TestReaderInstallTimeReplicaOrder(t *testing.T) {
	f := newFakeMetadata()
	c := cacheTestClient(t, f, 0)
	replicas := []core.NodeID{"a:1", "b:1", "c:1"}
	cm := &core.ChunkMap{
		Version: 1, FileSize: 3, ChunkSize: 1,
		Chunks: []core.ChunkRef{
			{Index: 0, ID: core.HashChunk([]byte("x")), Size: 1},
			{Index: 1, ID: core.HashChunk([]byte("y")), Size: 1},
			{Index: 2, ID: core.HashChunk([]byte("z")), Size: 1},
		},
		Locations: [][]core.NodeID{
			append([]core.NodeID(nil), replicas...),
			append([]core.NodeID(nil), replicas...),
			append([]core.NodeID(nil), replicas...),
		},
	}
	r := newReader(c, "rot.n1.t0", cm)
	defer r.Close()
	want := [][]core.NodeID{
		{"a:1", "b:1", "c:1"},
		{"b:1", "c:1", "a:1"},
		{"c:1", "a:1", "b:1"},
	}
	if !reflect.DeepEqual(r.locs, want) {
		t.Fatalf("installed order %v, want %v", r.locs, want)
	}
	for i, locs := range cm.Locations {
		if !reflect.DeepEqual(locs, replicas) {
			t.Fatalf("chunk %d of the shared map was reordered: %v", i, locs)
		}
	}
}
