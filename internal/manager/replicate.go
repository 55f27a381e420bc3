package manager

import (
	"sort"
	"sync"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// replJob is one under-replicated chunk: who holds it and how many more
// replicas it needs to meet its dataset's target.
type replJob struct {
	id      core.ChunkID
	size    int64
	sources []core.NodeID
	needed  int
}

// Priority bands. A chunk with a single live replica is one failure from
// loss and repairs before merely-degraded chunks; each band keeps its own
// per-round cap so a deep critical backlog cannot permanently starve bulk
// repair (nor the reverse). The critical band gets most of the round.
const (
	maxJobsPerRound = 256
	criticalBandCap = 192
	bulkBandCap     = maxJobsPerRound - criticalBandCap
)

// underReplicated scans the catalog for chunks whose live replica count is
// below their dataset's target. The manager builds the shadow-chunk-map
// from these (paper §IV.A "Data replication"). Jobs come back ordered by
// liveness deficit — every single-live-replica (critical) chunk before any
// multi-replica (bulk) one — so a downstream byte budget always spends on
// the most exposed data first.
//
// The scan streams one dataset stripe at a time under its read lock,
// consulting the content index per version with one grouped acquisition
// per touched chunk stripe (forEachRefShard; chunk stripes nest under
// dataset stripes in the lock order). Like the single-lock scan it
// replaces, it deduplicates only *emitted* jobs — a chunk that satisfies
// one dataset's target is still re-examined against a later dataset's
// higher target, and a chunk skipped because its band filled stays
// unmarked so the next round picks it up — scans to completion unless
// both band caps stop it, and so can never starve a chunk behind
// fully-replicated ones. Memory is O(jobs), bounded by maxJobsPerRound.
// All locking here is uninstrumented: this background pass must not
// pollute the stripe ops/contention metrics that measure client-driven
// serialization.
func (c *catalog) underReplicated(online func(core.NodeID) bool) []replJob {
	emitted := make(map[core.ChunkID]struct{}, maxJobsPerRound)
	var critical, bulk []replJob
	for _, sh := range c.ds {
		sh.mu.RLock()
		for _, ds := range sh.byName {
			target := ds.replication
			if target <= 1 {
				continue
			}
			for _, v := range ds.versions {
				c.forEachRefShard(v.chunks, false, func(cs *chunkShard, idx []int) {
					for _, i := range idx {
						ref := v.chunks[i]
						if _, dup := emitted[ref.ID]; dup {
							continue
						}
						e, ok := cs.chunks[ref.ID]
						if !ok {
							continue
						}
						var live []core.NodeID
						for node := range e.locations {
							if online == nil || online(node) {
								live = append(live, node)
							}
						}
						if len(live) == 0 || len(live) >= target {
							continue
						}
						band, bandCap := &bulk, bulkBandCap
						if len(live) == 1 {
							band, bandCap = &critical, criticalBandCap
						}
						if len(*band) >= bandCap {
							continue
						}
						emitted[ref.ID] = struct{}{}
						sort.Slice(live, func(a, b int) bool { return live[a] < live[b] })
						*band = append(*band, replJob{
							id:      ref.ID,
							size:    ref.Size,
							sources: live,
							needed:  target - len(live),
						})
					}
				})
				if len(critical) >= criticalBandCap && len(bulk) >= bulkBandCap {
					sh.mu.RUnlock()
					return append(critical, bulk...)
				}
			}
		}
		sh.mu.RUnlock()
	}
	return append(critical, bulk...)
}

// replicationLoop runs the background replication scheduler. Foreground
// writes have priority: while write sessions are active the scheduler
// throttles itself to one copy per round (paper §IV.A). Repair kicks
// (decommission, corruption report, rejoin) start a round immediately
// instead of waiting out the tick.
func (m *Manager) replicationLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.ReplicationInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.replicateOnce()
		case <-m.repairKick:
			m.replicateOnce()
		}
	}
}

// UnderReplicated runs one on-demand under-replication scan and reports
// the band sizes: critical chunks are one failure from loss (a single
// live replica), bulk chunks merely degraded. Both zero means every
// referenced chunk is back at its dataset's replication target — the
// convergence probe churn harnesses poll between failure injections.
func (m *Manager) UnderReplicated() (critical, bulk int) {
	for _, j := range m.cat.underReplicated(m.reg.online) {
		if len(j.sources) == 1 {
			critical++
		} else {
			bulk++
		}
	}
	return critical, bulk
}

// replicateOnce performs one scheduler round and returns the number of
// replicas successfully created. Exposed for tests and the ablation bench.
func (m *Manager) replicateOnce() int {
	jobs := m.cat.underReplicated(m.reg.online)
	critical := 0
	for _, j := range jobs {
		if len(j.sources) == 1 {
			critical++
		}
	}
	m.ctr.repairPending.Store(int64(len(jobs)))
	m.ctr.repairCritical.Store(int64(critical))
	if len(jobs) == 0 {
		return 0
	}
	// Byte budget. Jobs arrive critical-first, so when the round cannot
	// afford everything the surviving prefix is the critical band. At
	// least one job always survives — a budget smaller than the smallest
	// chunk must still make progress.
	if max := m.cfg.RepairBytesPerRound; max > 0 {
		var scheduled int64
		cut := len(jobs)
		for i, j := range jobs {
			scheduled += j.size * int64(j.needed)
			if scheduled > max && i > 0 {
				cut = i
				break
			}
		}
		jobs = jobs[:cut]
	}
	budget := m.cfg.ReplicationParallel
	if m.cfg.WritePriority && m.sess.active() > 0 {
		budget = 1
	}
	if budget > len(jobs) {
		budget = len(jobs)
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	copied := 0
	sem := make(chan struct{}, budget)
	for _, job := range jobs {
		select {
		case <-m.stop:
			wg.Wait()
			return copied
		default:
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(job replJob) {
			defer wg.Done()
			defer func() { <-sem }()
			n := m.replicateChunk(job)
			mu.Lock()
			copied += n
			mu.Unlock()
		}(job)
	}
	wg.Wait()
	return copied
}

// replicateChunk copies one chunk to `needed` new benefactors by
// instructing a live holder to push it (source-driven copy, as in the
// paper's shadow-map protocol: "The shadow-map is then sent to the source
// benefactors to initiate a copy to the new set of benefactors"). Under
// churn the first holder may die between the scan and the copy, so every
// target retries across all live sources before counting as a failure.
func (m *Manager) replicateChunk(job replJob) int {
	exclude := make(map[core.NodeID]struct{}, len(job.sources))
	for _, s := range job.sources {
		exclude[s] = struct{}{}
	}
	targets := m.reg.pickTargets(job.needed, exclude, job.size)
	if len(targets) == 0 {
		return 0
	}
	type src struct {
		id   core.NodeID
		addr string
	}
	var srcs []src
	for _, s := range job.sources {
		if addr, ok := m.reg.addr(s); ok && m.reg.online(s) {
			srcs = append(srcs, src{id: s, addr: addr})
		}
	}
	if len(srcs) == 0 {
		for _, tgt := range targets {
			m.reg.release([]core.NodeID{tgt.ID}, job.size)
		}
		m.ctr.repairFailed.Add(int64(len(targets)))
		return 0
	}
	copied := 0
	for _, tgt := range targets {
		ok := false
		for _, s := range srcs {
			req := proto.ReplicateReq{ID: job.id, Target: tgt.Addr}
			if _, err := m.pool.Call(s.addr, proto.BReplicate, req, nil, nil); err != nil {
				m.logf("replicate %s from %s -> %s: %v", job.id.Short(), s.id, tgt.ID, err)
				continue
			}
			ok = true
			break
		}
		// The transfer reservation (charged by pickTargets) is released
		// either way: a landed copy surfaces in the target's next heartbeat
		// Free, a failed one never used the space.
		m.reg.release([]core.NodeID{tgt.ID}, job.size)
		if !ok {
			m.ctr.repairFailed.Add(1)
			continue
		}
		// Shadow-map commit: the new location becomes part of the
		// authoritative chunk-map only after the copy succeeded.
		m.cat.addLocation(job.id, tgt.ID)
		m.ctr.replicasCopied.Add(1)
		m.ctr.repairCopiedBytes.Add(job.size)
		copied++
	}
	return copied
}
