package federation

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"stdchk/internal/metrics"
	"stdchk/internal/proto"
)

// TestOwnerExactlyOne is the partition-mapping property test: for any key
// and any federation size, exactly one member owns the key, the owner is
// in range, and recomputing through a freshly built Membership (a
// "restarted" router or member) yields the same owner.
func TestOwnerExactlyOne(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for members := 1; members <= 8; members++ {
		addrs := make([]string, members)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("host%d:9400", i)
		}
		ms, err := NewMembership(addrs)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 500; trial++ {
			key := fmt.Sprintf("app%d.n%d", rng.Intn(50), rng.Intn(100))
			owner := OwnerIndex(key, members)
			if owner < 0 || owner >= members {
				t.Fatalf("members=%d key=%q: owner %d out of range", members, key, owner)
			}
			// Exactly one member considers itself the owner.
			owners := 0
			for idx := 0; idx < members; idx++ {
				if OwnerIndex(key, members) == idx {
					owners++
				}
			}
			if owners != 1 {
				t.Fatalf("members=%d key=%q: %d owners", members, key, owners)
			}
			// Stable across restarts: a fresh Membership from the same
			// list maps the key identically.
			fresh, err := NewMembership(addrs)
			if err != nil {
				t.Fatal(err)
			}
			gotIdx, gotAddr := fresh.OwnerOf(key)
			if gotIdx != owner || gotAddr != addrs[owner] {
				t.Fatalf("members=%d key=%q: restart moved owner %d->%d", members, key, owner, gotIdx)
			}
			if ms.Epoch() != fresh.Epoch() {
				t.Fatalf("members=%d: epoch changed across restart: %#x vs %#x", members, ms.Epoch(), fresh.Epoch())
			}
		}
	}
}

// TestOwnerOfCollapsesTimesteps checks the routing invariant that keeps a
// version chain member-local: every timestep of one (app, node) pair
// routes to the dataset key's owner.
func TestOwnerOfCollapsesTimesteps(t *testing.T) {
	ms, err := NewMembership([]string{"a:1", "b:1", "c:1", "d:1"})
	if err != nil {
		t.Fatal(err)
	}
	keyIdx, _ := ms.OwnerOf("blast.n7")
	for ts := 0; ts < 32; ts++ {
		idx, _ := ms.OwnerOf(fmt.Sprintf("blast.n7.t%d", ts))
		if idx != keyIdx {
			t.Fatalf("timestep %d routed to member %d, dataset key to %d", ts, idx, keyIdx)
		}
	}
}

// TestOwnerDistribution guards against a degenerate partition function:
// over many keys every member of a 4-way federation must own a
// non-trivial share.
func TestOwnerDistribution(t *testing.T) {
	const members, keys = 4, 4000
	counts := make([]int, members)
	for i := 0; i < keys; i++ {
		counts[OwnerIndex(fmt.Sprintf("app%d.n%d", i%97, i), members)]++
	}
	for i, c := range counts {
		if c < keys/members/2 {
			t.Fatalf("member %d owns %d of %d keys; partition badly skewed: %v", i, c, keys, counts)
		}
	}
}

// TestEpoch checks the configuration-drift detector: identical lists
// agree, and any difference in content, order, or size changes the epoch.
func TestEpoch(t *testing.T) {
	base := []string{"a:1", "b:1", "c:1"}
	if Epoch(base) != Epoch([]string{"a:1", "b:1", "c:1"}) {
		t.Fatal("identical member lists produced different epochs")
	}
	variants := [][]string{
		{"a:1", "b:1"},
		{"b:1", "a:1", "c:1"},
		{"a:1", "b:1", "c:1", "d:1"},
		{"a:1", "b:1", "x:1"},
	}
	for _, v := range variants {
		if Epoch(v) == Epoch(base) {
			t.Fatalf("variant %v collides with base epoch", v)
		}
	}
	if Epoch(base) == 0 {
		t.Fatal("epoch 0 is reserved for non-federated callers")
	}
}

// TestNewMembershipValidation rejects empty and duplicate member lists.
func TestNewMembershipValidation(t *testing.T) {
	if _, err := NewMembership(nil); err == nil {
		t.Fatal("empty membership accepted")
	}
	if _, err := NewMembership([]string{"a:1", ""}); err == nil {
		t.Fatal("empty member address accepted")
	}
	if _, err := NewMembership([]string{"a:1", "a:1"}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	ms, err := NewMembership([]string{"a:1", "b:1"})
	if err != nil {
		t.Fatal(err)
	}
	if ms.Len() != 2 || ms.Members()[1] != "b:1" {
		t.Fatalf("membership mangled: %v", ms.Members())
	}
}

// TestMergeStats: merging members' snapshots adds their op records and
// summed counters and takes the larger of each maxed counter; the views
// follow the merged record. A lone member's snapshot comes back as it is.
func TestMergeStats(t *testing.T) {
	member := func(datasets, online, peak int64, allocs int) proto.ManagerStats {
		s := proto.ManagerStats{
			Counters: map[string]metrics.Counter{
				proto.CtrDatasets:          {Value: datasets},
				proto.CtrDedupHits:         {Value: 2 * datasets},
				proto.CtrBenefactorsOnline: {Value: online, Max: true},
				proto.CtrPeakQueueDepth:    {Value: peak, Max: true},
			},
			Ops:            map[string]metrics.OpStats{proto.MAlloc: {Count: int64(allocs)}},
			CatalogStripes: []proto.StripeStats{{Ops: 1}},
		}
		s.SetViews()
		return s
	}
	a, b := member(3, 4, 7, 1), member(5, 4, 2, 2)
	got := MergeStats([]proto.ManagerStats{a, b})
	want := map[string]metrics.Counter{
		proto.CtrDatasets:          {Value: 8},
		proto.CtrDedupHits:         {Value: 16},
		proto.CtrBenefactorsOnline: {Value: 4, Max: true},
		proto.CtrPeakQueueDepth:    {Value: 7, Max: true},
	}
	if !reflect.DeepEqual(got.Counters, want) {
		t.Fatalf("merged counters %v, want %v", got.Counters, want)
	}
	if got.Ops[proto.MAlloc].Count != 3 || got.Transactions != 3 || got.DedupHits != 16 {
		t.Fatalf("merged ops %v, transactions %d, dedup hits %d; want 3, 3, 16", got.Ops, got.Transactions, got.DedupHits)
	}
	if got.CatalogStripes != nil {
		t.Fatalf("merged view kept per-stripe detail: %v", got.CatalogStripes)
	}
	if lone := MergeStats([]proto.ManagerStats{a}); !reflect.DeepEqual(lone, a) {
		t.Fatalf("a lone member's snapshot came back changed:\n got  %+v\n want %+v", lone, a)
	}
}
