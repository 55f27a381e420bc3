package manager

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// hotCacheChunks builds a simple commit chunk list with locations.
func hotCacheChunks(seed, n int, size int64, locs []core.NodeID) ([]proto.CommitChunk, int64) {
	chunks := make([]proto.CommitChunk, n)
	var total int64
	for i := range chunks {
		chunks[i] = proto.CommitChunk{
			ID:        core.HashChunk([]byte(fmt.Sprintf("hot-%d-%d", seed, i))),
			Size:      size,
			Locations: locs,
		}
		total += size
	}
	return chunks, total
}

// TestHotMapCacheServesRepeatGetMaps: the first getMap of a version
// builds and memoizes; repeats are cache hits that return equal maps.
func TestHotMapCacheServesRepeatGetMaps(t *testing.T) {
	c := newCatalogStripes(16)
	chunks, total := hotCacheChunks(1, 4, 64, []core.NodeID{"n2:1", "n1:1"})
	if _, _, err := c.commit("hot.n1.t0", "hot", 1, 64, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	name1, m1, err := c.getMap("hot.n1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.maps.snapshot(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("after first getMap: %+v, want 0 hits / 1 miss", s)
	}
	name2, m2, err := c.getMap("hot.n1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.maps.snapshot(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after second getMap: %+v, want 1 hit / 1 miss", s)
	}
	if name1 != name2 || !reflect.DeepEqual(m1, m2) {
		t.Fatalf("cached map differs from built map:\nbuilt:  %+v\ncached: %+v", m1, m2)
	}
	// Locations must be sorted in the cached copy exactly as buildMap
	// sorts them.
	for i, locs := range m2.Locations {
		for j := 1; j < len(locs); j++ {
			if locs[j-1] > locs[j] {
				t.Fatalf("cached map chunk %d locations unsorted: %v", i, locs)
			}
		}
	}
	// Hits return clones: mutating one served map must not poison the
	// cache for the next reader.
	m2.Locations[0][0] = "poisoned:1"
	_, m3, err := c.getMap("hot.n1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Locations[0][0] == "poisoned:1" {
		t.Fatal("served map shares memory with the cache's canonical copy")
	}
}

// TestHotMapCacheCommitInvalidates: a commit of version v+1 drops the
// dataset's memoized maps (the version chain changed and the commit may
// have merged new locations into shared chunks).
func TestHotMapCacheCommitInvalidates(t *testing.T) {
	c := newCatalogStripes(16)
	chunks, total := hotCacheChunks(2, 2, 64, []core.NodeID{"n1:1"})
	if _, _, err := c.commit("inv.n1.t0", "inv", 1, 64, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.getMap("inv.n1", 0); err != nil {
		t.Fatal(err)
	}
	// v+1 shares v1's chunks copy-on-write but adds a replica location.
	shared := make([]proto.CommitChunk, len(chunks))
	for i, ch := range chunks {
		shared[i] = proto.CommitChunk{ID: ch.ID, Size: ch.Size, Locations: []core.NodeID{"n9:1"}}
	}
	if _, _, err := c.commit("inv.n1.t1", "inv", 1, 64, false, total, shared, ""); err != nil {
		t.Fatal(err)
	}
	if s := c.maps.snapshot(); s.Invalidations != 1 {
		t.Fatalf("commit of v+1 recorded %d invalidations, want 1", s.Invalidations)
	}
	// The rebuilt v1 map must see the merged location.
	_, m, err := c.getMap("inv.n1.t0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if s := c.maps.snapshot(); s.Hits != 0 {
		t.Fatalf("post-commit getMap served from cache (%+v), want rebuild", s)
	}
	found := false
	for _, n := range m.Locations[0] {
		if n == "n9:1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("rebuilt map missing merged location n9:1: %v", m.Locations[0])
	}
}

// TestHotMapCacheDeleteInvalidates: deleting a version (or dataset)
// drops its memoized maps.
func TestHotMapCacheDeleteInvalidates(t *testing.T) {
	c := newCatalogStripes(16)
	chunks, total := hotCacheChunks(3, 2, 64, []core.NodeID{"n1:1"})
	if _, _, err := c.commit("del.n1.t0", "del", 1, 64, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.getMap("del.n1", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.deleteVersion("del.n1", 0); err != nil {
		t.Fatal(err)
	}
	if s := c.maps.snapshot(); s.Invalidations != 1 {
		t.Fatalf("delete recorded %d invalidations, want 1", s.Invalidations)
	}
}

// TestHotMapCachePruneInvalidates: policy pruning removes versions like
// deletes do, so it must evict the dataset's memoized maps too —
// stranded entries would crowd live maps out of the LRU.
func TestHotMapCachePruneInvalidates(t *testing.T) {
	c := newCatalogStripes(16)
	for ti := 0; ti < 3; ti++ {
		chunks, total := hotCacheChunks(40+ti, 2, 64, []core.NodeID{"n1:1"})
		if _, _, err := c.commit(fmt.Sprintf("pr.n1.t%d", ti), "pr", 1, 64, false, total, chunks, ""); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.getMap("pr.n1", 0); err != nil {
		t.Fatal(err)
	}
	invBefore := c.maps.snapshot().Invalidations
	if removed, _, err := c.retain("pr.n1", core.Retention{KeepLast: 1}); err != nil || removed != 2 {
		t.Fatalf("trimmed %d versions (err %v), want 2", removed, err)
	}
	if got := c.maps.snapshot().Invalidations; got != invBefore+1 {
		t.Fatalf("trim recorded %d invalidations, want %d", got, invBefore+1)
	}
	if _, _, err := c.getMap("pr.n1", 0); err != nil {
		t.Fatal(err)
	}
	invBefore = c.maps.snapshot().Invalidations
	if removed, _, err := c.applyRetention("pr", core.Retention{}, time.Now().Add(time.Hour)); err != nil || removed != 1 {
		t.Fatalf("purged %d versions (err %v), want 1", removed, err)
	}
	if got := c.maps.snapshot().Invalidations; got != invBefore+1 {
		t.Fatalf("purge recorded %d invalidations, want %d", got, invBefore+1)
	}
}

// TestHotMapCacheReplicaDeathFlushes: dropLocationEverywhere (permanent
// replica death) flushes the whole cache, and rebuilt maps no longer
// name the dead node.
func TestHotMapCacheReplicaDeathFlushes(t *testing.T) {
	c := newCatalogStripes(16)
	chunks, total := hotCacheChunks(4, 2, 64, []core.NodeID{"dead:1", "live:1"})
	if _, _, err := c.commit("rd.n1.t0", "rd", 1, 64, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.getMap("rd.n1", 0); err != nil {
		t.Fatal(err)
	}
	c.dropLocationEverywhere("dead:1")
	if s := c.maps.snapshot(); s.Invalidations != 1 {
		t.Fatalf("replica death recorded %d invalidations, want 1", s.Invalidations)
	}
	_, m, err := c.getMap("rd.n1", 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, locs := range m.Locations {
		for _, n := range locs {
			if n == "dead:1" {
				t.Fatalf("chunk %d still lists the dead replica: %v", i, locs)
			}
		}
	}
}

// TestHotMapCacheDisabled: MapCacheEntries < 0 turns the manager cache
// off — every getMap is a miss and nothing is memoized.
func TestHotMapCacheDisabled(t *testing.T) {
	m, err := New(Config{
		MapCacheEntries:   -1,
		HeartbeatInterval: 1e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.reg.register(regReq("n1", 1<<30), 0)
	alloc, err := m.handleAlloc(proto.AllocReq{Name: "off.n1.t0", StripeWidth: 1, ChunkSize: 64, ReserveBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	chunks, total := commitChunks(5, 2, 64)
	if _, err := m.handleCommit(proto.CommitReq{
		WriteID: alloc.Meta.(proto.AllocResp).WriteID, FileSize: total, Chunks: chunks,
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := m.cat.getMap("off.n1", 0); err != nil {
			t.Fatal(err)
		}
	}
	if s := m.Stats().MapCache; s.Hits != 0 || s.Misses != 3 {
		t.Fatalf("disabled cache stats %+v, want 0 hits / 3 misses", s)
	}
}

// TestStatVersionResolvesLikeGetMap: the lightweight probe must agree
// with getMap on both dataset-key (latest) and full-name (timestep)
// resolution.
func TestStatVersionResolvesLikeGetMap(t *testing.T) {
	c := newCatalogStripes(16)
	for ti := 0; ti < 3; ti++ {
		chunks, total := hotCacheChunks(10+ti, 2, 64, []core.NodeID{"n1:1"})
		if _, _, err := c.commit(fmt.Sprintf("sv.n1.t%d", ti), "sv", 1, 64, false, total, chunks, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"sv.n1", "sv.n1.t1"} {
		gName, gm, err := c.getMap(name, 0)
		if err != nil {
			t.Fatal(err)
		}
		sName, sDS, sVer, err := c.statVersion(name, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		if sName != gName || sVer != gm.Version || sDS != gm.Dataset {
			t.Fatalf("statVersion(%q) = (%q, %d, %d); getMap says (%q, %d, %d)",
				name, sName, sDS, sVer, gName, gm.Dataset, gm.Version)
		}
	}
	if _, _, _, err := c.statVersion("sv.n9", time.Time{}); err == nil {
		t.Fatal("statVersion of unknown dataset succeeded")
	}
}
