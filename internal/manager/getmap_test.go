package manager

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// mapTestChunks builds a simple commit chunk list with locations.
func mapTestChunks(seed, n int, size int64, locs []core.NodeID) ([]proto.CommitChunk, int64) {
	chunks := make([]proto.CommitChunk, n)
	var total int64
	for i := range chunks {
		chunks[i] = proto.CommitChunk{
			ID:        core.HashChunk([]byte(fmt.Sprintf("map-%d-%d", seed, i))),
			Size:      size,
			Locations: locs,
		}
		total += size
	}
	return chunks, total
}

// TestGetMapServesCurrentLocations: every getMap lists the content
// index's replica sets as they stand at that call — a replica background
// repair adds after an earlier getMap (addLocation), one a later commit
// uploads for a shared chunk, and the removals of a scrub report
// (dropLocation) and of a decommission (dropLocationEverywhere).
func TestGetMapServesCurrentLocations(t *testing.T) {
	c := newCatalogStripes(16)
	chunks, total := mapTestChunks(1, 2, 64, []core.NodeID{"n1:1"})
	if _, _, _, err := c.commit("cur.n1.t0", "cur", 2, 64, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	locations := func(step string, want ...[]core.NodeID) {
		t.Helper()
		_, m, err := c.getMap("cur.n1.t0", 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m.Locations, want) {
			t.Fatalf("%s: locations %v, want %v", step, m.Locations, want)
		}
	}
	locations("after commit", []core.NodeID{"n1:1"}, []core.NodeID{"n1:1"})

	c.addLocation(chunks[0].ID, "n2:1")
	locations("after addLocation", []core.NodeID{"n1:1", "n2:1"}, []core.NodeID{"n1:1"})

	// The next version shares chunk 0 copy-on-write and uploads chunk 1
	// again, to another node.
	next := []proto.CommitChunk{
		{ID: chunks[0].ID, Size: 64},
		{ID: chunks[1].ID, Size: 64, Locations: []core.NodeID{"n3:1"}},
	}
	if _, _, _, err := c.commit("cur.n1.t1", "cur", 2, 64, false, total, next, ""); err != nil {
		t.Fatal(err)
	}
	locations("after a commit sharing chunk 1", []core.NodeID{"n1:1", "n2:1"}, []core.NodeID{"n1:1", "n3:1"})

	if !c.dropLocation(chunks[0].ID, "n1:1") {
		t.Fatal("dropLocation found no replica of chunk 0 on n1:1")
	}
	locations("after dropLocation", []core.NodeID{"n2:1"}, []core.NodeID{"n1:1", "n3:1"})

	if n := c.dropLocationEverywhere("n1:1"); n != 1 {
		t.Fatalf("dropLocationEverywhere dropped %d locations, want 1", n)
	}
	locations("after dropLocationEverywhere", []core.NodeID{"n2:1"}, []core.NodeID{"n3:1"})
}

// TestHotMapCacheCommitInvalidates: after a commit of version v+1 that
// shares v's chunks copy-on-write and adds a replica location, a getMap
// of v lists the merged location. (The name dates from the manager's
// map cache, which a commit had to invalidate; getMap now builds every
// map on read.)
func TestHotMapCacheCommitInvalidates(t *testing.T) {
	c := newCatalogStripes(16)
	chunks, total := mapTestChunks(2, 2, 64, []core.NodeID{"n1:1"})
	if _, _, _, err := c.commit("inv.n1.t0", "inv", 1, 64, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.getMap("inv.n1", 0, 0); err != nil {
		t.Fatal(err)
	}
	shared := make([]proto.CommitChunk, len(chunks))
	for i, ch := range chunks {
		shared[i] = proto.CommitChunk{ID: ch.ID, Size: ch.Size, Locations: []core.NodeID{"n9:1"}}
	}
	if _, _, _, err := c.commit("inv.n1.t1", "inv", 1, 64, false, total, shared, ""); err != nil {
		t.Fatal(err)
	}
	_, m, err := c.getMap("inv.n1.t0", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, n := range m.Locations[0] {
		if n == "n9:1" {
			found = true
		}
	}
	if !found {
		t.Fatalf("map of v missing merged location n9:1: %v", m.Locations[0])
	}
}

// TestHotMapCacheReplicaDeathFlushes: after dropLocationEverywhere
// (permanent replica death) a getMap no longer names the dead node.
// (The name dates from the manager's map cache, which replica death had
// to flush; getMap now builds every map on read.)
func TestHotMapCacheReplicaDeathFlushes(t *testing.T) {
	c := newCatalogStripes(16)
	chunks, total := mapTestChunks(4, 2, 64, []core.NodeID{"dead:1", "live:1"})
	if _, _, _, err := c.commit("rd.n1.t0", "rd", 1, 64, false, total, chunks, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.getMap("rd.n1", 0, 0); err != nil {
		t.Fatal(err)
	}
	c.dropLocationEverywhere("dead:1")
	_, m, err := c.getMap("rd.n1", 0, 0)
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

// TestStatVersionResolvesLikeGetMap: the lightweight probe must agree
// with getMap on both dataset-key (latest) and full-name (timestep)
// resolution.
func TestStatVersionResolvesLikeGetMap(t *testing.T) {
	c := newCatalogStripes(16)
	for ti := 0; ti < 3; ti++ {
		chunks, total := mapTestChunks(10+ti, 2, 64, []core.NodeID{"n1:1"})
		if _, _, _, err := c.commit(fmt.Sprintf("sv.n1.t%d", ti), "sv", 1, 64, false, total, chunks, ""); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"sv.n1", "sv.n1.t1"} {
		gName, gm, err := c.getMap(name, 0, 0)
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
