// Package federation partitions the stdchk metadata plane across multiple
// manager processes. The paper keeps the manager off the critical path by
// making it cheap (§V.E, >1,000 tps); PR 3 striped the catalog inside one
// process, but a single manager still owns the whole namespace — one
// machine and one failure domain. Federation removes that ceiling the way
// storage-cloud metadata services do (Chelonia; P2P checkpointing): N
// managers, each owning a deterministic partition of dataset keys, fronted
// by a thin client-side Router.
//
// The partition function reuses the catalog's FNV-1a stripe hash over the
// dataset key, taken modulo the member count, so the mapping is a pure
// function of (key, member list): any router and any member derive the
// same owner with no coordination, and the map is stable across process
// restarts. Membership is static configuration; every party fingerprints
// its member list into a partition epoch, and members reject requests
// whose epoch disagrees with theirs, so a router and a member configured
// with different federations can never silently cross-route datasets.
package federation

import (
	"fmt"
	"strings"

	"stdchk/internal/hashing"
	"stdchk/internal/namespace"
)

// SplitMembers parses a comma-separated member list, trimming whitespace
// and dropping empty entries. Every CLI accepting a federation list
// parses it through here, so the parsing can never diverge between the
// manager, benefactor and client — member-list divergence is exactly
// what the partition epoch exists to catch.
func SplitMembers(s string) []string {
	var out []string
	for _, m := range strings.Split(s, ",") {
		if m = strings.TrimSpace(m); m != "" {
			out = append(out, m)
		}
	}
	return out
}

// OwnerIndex maps a dataset key onto its owning member index in a
// federation of `members` managers, hashing with the same FNV-1a
// (hashing.FNV1aString) the catalog stripes datasets with. It is a pure
// function: every caller with the same inputs derives the same owner,
// which is what lets the client-side router and the manager-side
// partition filter agree without coordination.
func OwnerIndex(key string, members int) int {
	if members <= 1 {
		return 0
	}
	return int(hashing.FNV1aString(key) % uint64(members))
}

// Epoch fingerprints a member list into the partition epoch. Routers put
// it on dataset-scoped requests and members check it, so configuration
// drift (different lists, different order, different counts) is detected
// instead of misrouting datasets. Epoch 0 is reserved for "not
// federation-aware"; the hash is nudged away from it.
func Epoch(members []string) uint64 {
	// One FNV-1a over the framed list: the count, then each member
	// terminated by a byte no address contains, so neither reordering nor
	// re-splitting addresses can collide.
	h := hashing.FNV1aString(fmt.Sprintf("%d\xff%s\xff", len(members), strings.Join(members, "\xff")))
	if h == 0 {
		h = 1
	}
	return h
}

// Membership is a static federation configuration: the ordered member
// service addresses and the derived partition epoch.
type Membership struct {
	members []string
	epoch   uint64
}

// NewMembership validates and fingerprints a member list. The order is
// significant: member i in the list is the manager started with
// MemberIndex i.
func NewMembership(members []string) (*Membership, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("federation: membership requires at least one member")
	}
	seen := make(map[string]struct{}, len(members))
	for i, m := range members {
		if m == "" {
			return nil, fmt.Errorf("federation: member %d has an empty address", i)
		}
		if _, dup := seen[m]; dup {
			return nil, fmt.Errorf("federation: member address %q listed twice", m)
		}
		seen[m] = struct{}{}
	}
	return &Membership{
		members: append([]string(nil), members...),
		epoch:   Epoch(members),
	}, nil
}

// Members returns the ordered member addresses.
func (ms *Membership) Members() []string {
	return append([]string(nil), ms.members...)
}

// Len returns the member count.
func (ms *Membership) Len() int { return len(ms.members) }

// Epoch returns the partition epoch.
func (ms *Membership) Epoch() uint64 { return ms.epoch }

// OwnerOf resolves an arbitrary file name (A.Ni.Tj or plain) to its
// owning member: all timesteps of one dataset collapse to the same key
// and therefore the same member, which is what keeps a dataset's version
// chain, content index entries and copy-on-write sharing member-local.
func (ms *Membership) OwnerOf(name string) (index int, addr string) {
	if len(ms.members) == 1 {
		return 0, ms.members[0] // no key to derive: a lone manager owns every dataset
	}
	index = OwnerIndex(namespace.DatasetOf(name), len(ms.members))
	return index, ms.members[index]
}
