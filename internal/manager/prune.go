package manager

import (
	"sort"
	"sync"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/namespace"
	"stdchk/internal/proto"
)

// policyTable holds per-folder data-lifetime policies (paper §IV.D).
// Reads (the per-commit durability lookup, pruner scans) take the read
// lock; writes hold the write lock across apply AND journal so a catalog
// snapshot's watermark cut can never observe an applied policy whose
// journal record is not yet ticketed, or vice versa.
type policyTable struct {
	mu sync.RWMutex
	m  map[string]core.Policy
}

func newPolicyTable() *policyTable {
	return &policyTable{m: make(map[string]core.Policy)}
}

func (p *policyTable) set(folder string, policy core.Policy) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.m[folder] = policy
}

// setJournaled applies a policy and journals it atomically under the
// table lock. A journal failure reverts the apply, so a client whose
// SetPolicy errors has not silently changed behaviour the journal cannot
// replay.
func (p *policyTable) setJournaled(folder string, policy core.Policy, journal func(journalEntry) error) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	old, had := p.m[folder]
	p.m[folder] = policy
	if err := journal(journalEntry{Op: "policy", Name: folder, Policy: &policy}); err != nil {
		if had {
			p.m[folder] = old
		} else {
			delete(p.m, folder)
		}
		return err
	}
	return nil
}

func (p *policyTable) get(folder string) core.Policy {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if policy, ok := p.m[folder]; ok {
		return policy
	}
	return core.DefaultPolicy()
}

// enforcedFolders lists folders whose policy prunes anything in the
// background: a purge interval, a retention schedule, or both.
func (p *policyTable) enforcedFolders() map[string]core.Policy {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make(map[string]core.Policy)
	for folder, policy := range p.m {
		if policy.Kind == core.PolicyPurge || policy.Retention.Enabled() {
			out[folder] = policy
		}
	}
	return out
}

// applyReplacePolicy enforces "automated replace" right after a commit:
// the newly committed image makes versions beyond the keep window
// obsolete. It runs through the same centralized (journaled) removal
// path as deletes and the retention worker.
func (m *Manager) applyReplacePolicy(fileName string) {
	folder := namespace.FolderOf(fileName)
	policy := m.policies.get(folder)
	if policy.Kind != core.PolicyReplace {
		return
	}
	removed, orphans, err := m.cat.retain(namespace.DatasetOf(fileName), core.Retention{KeepLast: policy.Keep()})
	if err != nil {
		m.logf("replace policy on %s: %v", fileName, err)
		return
	}
	if removed > 0 {
		m.ctr.versionsPruned.Add(int64(removed))
		m.logf("replace policy on %s: pruned %d versions, %d chunks orphaned", fileName, removed, len(orphans))
	}
}

// retentionLoop is the background retention worker: it enforces purge
// intervals and retention schedules (keep-last-N / keep-hourly) per
// folder, and after a round that removed versions it takes a catalog
// snapshot — retention is the journal-compaction trigger, so pruned
// history leaves the journal too instead of replaying forever.
func (m *Manager) retentionLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.PruneInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case now := <-ticker.C:
			m.retentionOnce(now)
		}
	}
}

// retentionOnce applies every folder's purge/retention policy once and
// returns the number of versions removed; exposed for tests.
func (m *Manager) retentionOnce(now time.Time) int {
	total := 0
	for folder, policy := range m.policies.enforcedFolders() {
		var cutoff time.Time
		if policy.Kind == core.PolicyPurge {
			cutoff = now.Add(-policy.PurgeAfter)
		}
		removed, orphans, err := m.cat.applyRetention(folder, policy.Retention, cutoff)
		if err != nil {
			m.logf("retention on folder %q: %v", folder, err)
		}
		if removed > 0 {
			m.ctr.versionsPruned.Add(int64(removed))
			m.logf("retention on folder %q: pruned %d versions, %d chunks orphaned", folder, removed, len(orphans))
		}
		total += removed
	}
	if total > 0 && m.journal != nil {
		// Fold the removals into a snapshot so the truncated journal stops
		// carrying (and replaying) versions retention already condemned.
		if _, err := m.Snapshot(); err != nil {
			m.logf("retention snapshot: %v", err)
		}
	}
	return total
}

// selectRetention partitions a dataset's version chain into victims and
// survivors per schedule r plus an optional purge cutoff (zero = no
// purge). The purge cutoff wins over the schedule: purge is an explicit
// "data expires after T" contract, so even a schedule-retained version
// goes once it ages past the cutoff. Callers hold the dataset's shard
// lock.
func selectRetention(ds *dataset, r core.Retention, cutoff time.Time) (victims, kept []*version) {
	times := make([]time.Time, len(ds.versions))
	for i, v := range ds.versions {
		times[i] = v.committedAt
	}
	keep := r.RetainVersions(times)
	for i, v := range ds.versions {
		purged := !cutoff.IsZero() && v.committedAt.Before(cutoff)
		if purged || !keep[i] {
			victims = append(victims, v)
		} else {
			kept = append(kept, v)
		}
	}
	return victims, kept
}

// policyDryRun reports exactly what the next retention sweep would prune
// — the audit companion to retentionOnce, sharing its cutoff arithmetic
// and selectRetention's partition function — without mutating anything.
// Folder "" audits every enforced folder; folders with an enforced policy
// but nothing to prune are reported with empty Victims.
func (m *Manager) policyDryRun(req proto.PolicyDryRunReq, now time.Time) proto.PolicyDryRunResp {
	var resp proto.PolicyDryRunResp
	for folder, policy := range m.policies.enforcedFolders() {
		if req.Folder != "" && folder != req.Folder {
			continue
		}
		var cutoff time.Time
		if policy.Kind == core.PolicyPurge {
			cutoff = now.Add(-policy.PurgeAfter)
		}
		resp.Folders = append(resp.Folders, proto.FolderDryRun{
			Folder:  folder,
			Policy:  policy,
			Victims: m.cat.dryRunRetention(folder, policy.Retention, cutoff),
		})
	}
	sort.Slice(resp.Folders, func(i, j int) bool {
		return resp.Folders[i].Folder < resp.Folders[j].Folder
	})
	return resp
}

// dryRunRetention mirrors applyRetention read-only: the same shard sweep
// and the same selectRetention partition, under per-shard RLocks, listing
// the victims instead of removing them.
func (c *catalog) dryRunRetention(folder string, r core.Retention, cutoff time.Time) []proto.PruneCandidate {
	var out []proto.PruneCandidate
	for _, sh := range c.ds {
		sh.rlock()
		for _, ds := range sh.byName {
			if ds.folder != folder {
				continue
			}
			victims, _ := selectRetention(ds, r, cutoff)
			for _, v := range victims {
				out = append(out, proto.PruneCandidate{
					Dataset:     ds.id,
					Name:        v.fileName,
					Version:     v.id,
					FileSize:    v.fileSize,
					CommittedAt: v.committedAt,
				})
			}
		}
		sh.runlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// retain applies a retention schedule to one dataset (the replace
// policy's post-commit trim). Unknown datasets are a no-op.
func (c *catalog) retain(datasetKey string, r core.Retention) (int, []core.ChunkID, error) {
	sh := c.dsShardOf(datasetKey)
	sh.lock()
	defer sh.unlock()
	ds, ok := sh.byName[datasetKey]
	if !ok {
		return 0, nil, nil
	}
	victims, kept := selectRetention(ds, r, time.Time{})
	orphans, err := c.removeVersionsLocked(sh, ds, victims, kept)
	return len(victims), orphans, err
}

// applyRetention sweeps a folder, applying schedule r and an optional
// purge cutoff to every dataset through the centralized removal path.
// Shards are swept one at a time, so a long sweep never stalls commits
// on other stripes.
func (c *catalog) applyRetention(folder string, r core.Retention, cutoff time.Time) (int, []core.ChunkID, error) {
	removed := 0
	var orphans []core.ChunkID
	for _, sh := range c.ds {
		sh.lock()
		for _, ds := range sh.byName {
			if ds.folder != folder {
				continue
			}
			victims, kept := selectRetention(ds, r, cutoff)
			if len(victims) == 0 {
				continue
			}
			o, err := c.removeVersionsLocked(sh, ds, victims, kept)
			if err != nil {
				sh.unlock()
				return removed, orphans, err
			}
			orphans = append(orphans, o...)
			removed += len(victims)
		}
		sh.unlock()
	}
	return removed, orphans, nil
}
