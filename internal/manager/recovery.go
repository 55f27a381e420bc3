package manager

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/namespace"
	"stdchk/internal/proto"
)

// recoveryState accumulates chunk-map replicas pulled from benefactors
// after a manager restart with lost metadata. The paper's rule (§IV.A):
// once the manager has received concurrence from two-thirds of the stripe
// width of benefactors, it can safely restore the dataset's metadata.
type recoveryState struct {
	mu       sync.Mutex
	reports  map[string]map[string]*mapReport // fileName -> signature -> report
	restored map[string]struct{}              // fileName+signature already applied
}

type mapReport struct {
	m         *core.ChunkMap
	reporters map[string]struct{} // benefactor addresses that returned this map
}

func newRecoveryState() *recoveryState {
	return &recoveryState{
		reports:  make(map[string]map[string]*mapReport),
		restored: make(map[string]struct{}),
	}
}

// mapSignature fingerprints a chunk-map's identity-relevant content
// (version, file size, ordered chunk hashes) so identical replicas from
// different benefactors can be counted as concurring.
func mapSignature(m *core.ChunkMap) string {
	h := sha1.New()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(m.Version))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(m.FileSize))
	h.Write(buf[:])
	for _, c := range m.Chunks {
		h.Write(c.ID[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// stripeWidth is the number of distinct benefactors appearing in the map's
// location lists: the "width" whose two-thirds must concur.
func stripeWidth(m *core.ChunkMap) int {
	nodes := make(map[core.NodeID]struct{})
	for _, locs := range m.Locations {
		for _, n := range locs {
			nodes[n] = struct{}{}
		}
	}
	return len(nodes)
}

// add records one replica and reports whether quorum is now met.
func (r *recoveryState) add(name string, m *core.ChunkMap, reporter string) (quorum bool, rep *mapReport) {
	sig := mapSignature(m)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, done := r.restored[name+"/"+sig]; done {
		return false, nil
	}
	byName, ok := r.reports[name]
	if !ok {
		byName = make(map[string]*mapReport)
		r.reports[name] = byName
	}
	report, ok := byName[sig]
	if !ok {
		report = &mapReport{m: m, reporters: make(map[string]struct{})}
		byName[sig] = report
	}
	report.reporters[reporter] = struct{}{}
	width := stripeWidth(m)
	if width == 0 {
		return false, nil
	}
	if len(report.reporters)*3 >= width*2 {
		r.restored[name+"/"+sig] = struct{}{}
		return true, report
	}
	return false, nil
}

// pullRecoveryMaps asks one benefactor for its chunk-map replicas and
// restores every map that reaches quorum.
func (m *Manager) pullRecoveryMaps(addr string) {
	var resp proto.MapListResp
	if _, err := m.pool.Call(addr, proto.BMapList, nil, nil, &resp); err != nil {
		m.logf("recovery pull from %s: %v", addr, err)
		return
	}
	for _, nm := range resp.Maps {
		if nm.Map == nil || nm.Name == "" {
			continue
		}
		// Benefactors hold map replicas for the whole federation; a
		// recovering member restores only its own partition, so recovery
		// scans stay partition-local and members never resurrect datasets
		// they would refuse to serve.
		if !m.owns(nm.Name) {
			continue
		}
		quorum, report := m.recovery.add(nm.Name, nm.Map, addr)
		if !quorum {
			continue
		}
		if err := m.cat.restore(nm.Name, report.m); err != nil {
			m.logf("recovery restore %s: %v", nm.Name, err)
			continue
		}
		m.logf("recovered %s from benefactor quorum (%d reporters)", nm.Name, len(report.reporters))
	}
}

// FinishRecovery leaves recovery mode (new registrations are no longer
// asked for map replicas).
func (m *Manager) FinishRecovery() {
	m.recovering.Store(false)
}

// Recovering reports whether the manager is still collecting recovery
// state.
func (m *Manager) Recovering() bool { return m.recovering.Load() }

// restore re-inserts a recovered version into the catalog. It is
// idempotent per (file name, version).
//
// Under the striped catalog, the dataset's stripe lock serializes restores
// of the same dataset; the dataset-ID index keeps recovered IDs unique
// across stripes, and ID-allocator floors are raised so later commits
// never collide with recovered identifiers.
func (c *catalog) restore(fileName string, cm *core.ChunkMap) error {
	if err := cm.Validate(); err != nil {
		return fmt.Errorf("restore %s: %w", fileName, err)
	}
	key := namespace.DatasetOf(fileName)
	sh := c.dsShardOf(key)
	sh.lock()
	defer sh.unlock()

	ds, ok := sh.byName[key]
	if !ok {
		ds = &dataset{
			id:          c.claimDatasetID(cm.Dataset),
			name:        key,
			folder:      namespace.FolderOf(fileName),
			replication: cm.MinReplication(),
		}
		sh.byName[key] = ds
	}
	for _, v := range ds.versions {
		if v.id == cm.Version || v.fileName == fileName && v.fileSize == cm.FileSize {
			return nil // already present
		}
	}
	// The loop above returned on a version with this ID, so only a map
	// without one needs a fresh ID.
	verID := cm.Version
	if verID == 0 {
		verID = core.VersionID(c.nextVersion.Add(1))
	}

	// A recovered map's chunks are stored by definition, so the charges
	// are trusted.
	asCommit := make([]proto.CommitChunk, len(cm.Chunks))
	for i, ref := range cm.Chunks {
		asCommit[i] = proto.CommitChunk{ID: ref.ID, Size: ref.Size}
		if i < len(cm.Locations) {
			asCommit[i].Locations = cm.Locations[i]
		}
	}
	v := &version{
		id:          verID,
		fileName:    fileName,
		fileSize:    cm.FileSize,
		chunkSize:   cm.ChunkSize,
		variable:    cm.Variable,
		chunks:      append([]core.ChunkRef(nil), cm.Chunks...),
		committedAt: cm.CreatedAt,
	}
	if v.committedAt.IsZero() {
		v.committedAt = time.Now()
	}
	newBytes, err := c.insertTrusted(ds, v, asCommit)
	if err != nil {
		return fmt.Errorf("restore %s: %w", fileName, err)
	}
	v.newBytes = newBytes
	sort.Slice(ds.versions, func(i, j int) bool { return ds.versions[i].id < ds.versions[j].id })
	return nil
}
