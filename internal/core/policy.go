package core

import (
	"fmt"
	"time"
)

// PolicyKind selects the automated data-lifetime behaviour for a folder of
// checkpoint images (paper §IV.D).
type PolicyKind int

const (
	// PolicyNone persists all versions indefinitely ("no intervention").
	PolicyNone PolicyKind = iota + 1
	// PolicyReplace makes a newly committed version obsolete all older
	// versions of the same dataset ("automated replace").
	PolicyReplace
	// PolicyPurge removes versions after a predefined interval
	// ("automated purge").
	PolicyPurge
)

// String implements fmt.Stringer.
func (k PolicyKind) String() string {
	switch k {
	case PolicyNone:
		return "none"
	case PolicyReplace:
		return "replace"
	case PolicyPurge:
		return "purge"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// ParsePolicyKind parses the string form produced by String.
func ParsePolicyKind(s string) (PolicyKind, error) {
	switch s {
	case "none":
		return PolicyNone, nil
	case "replace":
		return PolicyReplace, nil
	case "purge":
		return PolicyPurge, nil
	default:
		return 0, fmt.Errorf("unknown policy kind %q", s)
	}
}

// Durability selects how hard the manager journal pushes a folder's
// commits toward stable storage. It is orthogonal to the lifetime Kind: a
// scratch folder can run relaxed/1-replica while a results folder demands
// group-commit fsync, on the same manager.
type Durability int

const (
	// DurabilityDefault inherits the manager's configured journal mode.
	DurabilityDefault Durability = iota
	// DurabilityRelaxed explicitly accepts the async journal's crash
	// window (buffered, no fsync requested).
	DurabilityRelaxed
	// DurabilityFsync asks the journal writer to fsync the batch carrying
	// this folder's records before more commits are acknowledged, even
	// when the manager's global fsync mode is off.
	DurabilityFsync
)

// String implements fmt.Stringer.
func (d Durability) String() string {
	switch d {
	case DurabilityDefault:
		return "default"
	case DurabilityRelaxed:
		return "relaxed"
	case DurabilityFsync:
		return "fsync"
	default:
		return fmt.Sprintf("Durability(%d)", int(d))
	}
}

// Retention is a per-folder version-retention schedule, orthogonal to
// the lifetime Kind the way Durability is. A zero Retention retains
// everything. When set, the retention worker keeps, per dataset:
//
//   - the KeepLast most recent versions, always including the newest, and
//   - the newest version within each of the last KeepHourly distinct
//     hour buckets (commit time truncated to the hour),
//
// and removes every version in neither set. KeepLast <= 0 with
// KeepHourly > 0 means "hourly only" still never drops the newest
// version.
type Retention struct {
	// KeepLast retains the N most recent versions.
	KeepLast int `json:"keepLast,omitempty"`
	// KeepHourly retains the newest version of each of the last N
	// distinct commit hours.
	KeepHourly int `json:"keepHourly,omitempty"`
}

// Enabled reports whether the schedule retains anything selectively
// (a zero Retention disables retention pruning entirely).
func (r Retention) Enabled() bool { return r.KeepLast > 0 || r.KeepHourly > 0 }

// Validate checks the schedule's parameters.
func (r Retention) Validate() error {
	if r.KeepLast < 0 {
		return fmt.Errorf("retention: negative keepLast %d", r.KeepLast)
	}
	if r.KeepHourly < 0 {
		return fmt.Errorf("retention: negative keepHourly %d", r.KeepHourly)
	}
	return nil
}

// RetainVersions applies schedule r to a version chain and reports which
// entries survive. times lists the commit timestamps oldest-first (the
// catalog's version-chain order); the returned keep slice is parallel to
// it. The function is pure — the retention property tests drive it
// directly — and the newest version is always retained, so an enabled
// schedule can never empty a dataset.
func (r Retention) RetainVersions(times []time.Time) []bool {
	keep := make([]bool, len(times))
	if len(times) == 0 {
		return keep
	}
	if !r.Enabled() {
		for i := range keep {
			keep[i] = true
		}
		return keep
	}
	// KeepLast most recent, and the newest unconditionally.
	keep[len(times)-1] = true
	for i := len(times) - r.KeepLast; i < len(times); i++ {
		if i >= 0 {
			keep[i] = true
		}
	}
	if r.KeepHourly > 0 {
		// Walk newest-to-oldest; the first version seen in each hour
		// bucket is that bucket's newest. Buckets are counted in the
		// order encountered, so the "last KeepHourly distinct hours"
		// are the KeepHourly newest buckets that actually have versions.
		buckets := 0
		var last time.Time
		haveLast := false
		for i := len(times) - 1; i >= 0; i-- {
			h := times[i].Truncate(time.Hour)
			if haveLast && h.Equal(last) {
				continue
			}
			buckets++
			if buckets > r.KeepHourly {
				break
			}
			last, haveLast = h, true
			keep[i] = true
		}
	}
	return keep
}

// Policy is the per-folder data-lifetime policy. KeepVersions optionally
// retains the most recent N versions under PolicyReplace (N=1 reproduces the
// paper's "new images make older ones obsolete"); PurgeAfter applies under
// PolicyPurge. Durability selects the folder's journal durability tier and
// Retention the folder's version-retention schedule (both orthogonal to
// Kind).
type Policy struct {
	Kind         PolicyKind    `json:"kind"`
	KeepVersions int           `json:"keepVersions,omitempty"`
	PurgeAfter   time.Duration `json:"purgeAfter,omitempty"`
	Durability   Durability    `json:"durability,omitempty"`
	Retention    Retention     `json:"retention,omitempty"`
}

// DefaultPolicy is applied to folders without explicit metadata.
func DefaultPolicy() Policy {
	return Policy{Kind: PolicyNone}
}

// Validate checks that the policy parameters are consistent with its kind.
func (p Policy) Validate() error {
	switch p.Durability {
	case DurabilityDefault, DurabilityRelaxed, DurabilityFsync:
	default:
		return fmt.Errorf("policy: unknown durability %d", int(p.Durability))
	}
	if err := p.Retention.Validate(); err != nil {
		return err
	}
	switch p.Kind {
	case PolicyNone:
		return nil
	case PolicyReplace:
		if p.KeepVersions < 0 {
			return fmt.Errorf("policy replace: negative keepVersions %d", p.KeepVersions)
		}
		return nil
	case PolicyPurge:
		if p.PurgeAfter <= 0 {
			return fmt.Errorf("policy purge: non-positive purgeAfter %v", p.PurgeAfter)
		}
		return nil
	default:
		return fmt.Errorf("policy: unknown kind %d", int(p.Kind))
	}
}

// Keep reports the number of most-recent versions PolicyReplace retains
// (at least one).
func (p Policy) Keep() int {
	if p.KeepVersions <= 0 {
		return 1
	}
	return p.KeepVersions
}

// ReplicationTarget is a user-defined replication level for a dataset or
// folder (paper §IV.A "User-defined replication targets").
type ReplicationTarget struct {
	Level int `json:"level"`
}

// DefaultReplicationLevel is used when the application does not specify a
// target. One replica means "stored once, no redundancy"; the paper's
// availability experiments use 2.
const DefaultReplicationLevel = 2
