package manager

import (
	"bufio"
	"crypto/sha1"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/proto"
)

// Fault-injection points on the snapshot durability path.
var (
	fpSnapshotWrite  = faultpoint.Register("manager.snapshot.write")
	fpSnapshotRename = faultpoint.Register("manager.snapshot.rename")
)

// A catalog snapshot bounds restart cost by live state instead of journal
// history: recovery loads the newest valid snapshot and replays only the
// journal entries past its ticket watermark. The file layout is one JSON
// header line (magic, watermark, payload size, SHA-1) followed by the JSON
// payload, written to a temp file, fsynced, and renamed into place — a
// crash at any instant leaves either no snapshot or a whole one, and a
// corrupt payload is detected by checksum and skipped in favour of the
// previous snapshot (the newest two are retained).

const snapshotMagic = "stdchk-snapshot"

type snapshotHeader struct {
	Magic     string `json:"magic"`
	Version   int    `json:"version"`
	Watermark uint64 `json:"watermark"`
	Size      int64  `json:"size"`
	SHA1      string `json:"sha1"`
}

// snapshotState is the serialized catalog image. Allocator counters are
// stored verbatim so IDs handed out after recovery match what a full
// journal replay would have produced.
type snapshotState struct {
	Watermark   uint64                 `json:"watermark"`
	NextDataset uint64                 `json:"nextDataset"`
	NextVersion uint64                 `json:"nextVersion"`
	Policies    map[string]core.Policy `json:"policies,omitempty"`
	Datasets    []snapDataset          `json:"datasets"`
}

type snapDataset struct {
	ID          core.DatasetID `json:"id"`
	Name        string         `json:"name"`
	Folder      string         `json:"folder"`
	Replication int            `json:"replication,omitempty"`
	Versions    []snapVersion  `json:"versions"`
}

type snapVersion struct {
	ID          core.VersionID `json:"id"`
	FileName    string         `json:"fileName"`
	FileSize    int64          `json:"fileSize"`
	ChunkSize   int64          `json:"chunkSize"`
	Variable    bool           `json:"variable,omitempty"`
	NewBytes    int64          `json:"newBytes"`
	CommittedAt time.Time      `json:"committedAt"`
	Writer      string         `json:"writer,omitempty"`
	Chunks      []snapChunk    `json:"chunks"`
}

type snapChunk struct {
	ID        core.ChunkID  `json:"id"`
	Size      int64         `json:"size"`
	Locations []core.NodeID `json:"locations,omitempty"`
}

// snapshotPath names the snapshot file for a watermark. The watermark is
// zero-padded so lexical order equals numeric order and listSnapshots can
// sort paths directly.
func snapshotPath(journalPath string, watermark uint64) string {
	return fmt.Sprintf("%s.snapshot.%020d", journalPath, watermark)
}

// listSnapshots returns the journal's snapshot files, newest watermark
// first.
func listSnapshots(journalPath string) ([]string, error) {
	matches, err := filepath.Glob(journalPath + ".snapshot.*")
	if err != nil {
		return nil, err
	}
	out := matches[:0]
	for _, p := range matches {
		if strings.HasSuffix(p, ".tmp") {
			continue
		}
		out = append(out, p)
	}
	sort.Sort(sort.Reverse(sort.StringSlice(out)))
	return out, nil
}

// captureSnapshot walks the live catalog into a serializable image under a
// consistency cut: every dataset stripe's read lock plus the policy-table
// lock, then the journal ticket counter. Tickets are issued inside those
// critical sections (commit/delete under a dataset stripe, policy updates
// under the table lock), so every mutation with ticket <= the watermark
// read here is fully applied and visible to this walk, and every mutation
// the walk cannot see will ticket past it. Chunk locations come from
// buildMap, under the chunk stripes' read locks — legal ordering, a
// dataset stripe may hold chunk stripes — and concurrent in-flight charges
// only merge location hints, never publish versions, so the image stays
// consistent.
func (m *Manager) captureSnapshot() *snapshotState {
	c := m.cat
	for _, sh := range c.ds {
		sh.mu.RLock() // uninstrumented: background maintenance, not client load
	}
	m.policies.mu.RLock()
	st := &snapshotState{
		Watermark:   m.journal.seq.Load(),
		NextDataset: c.nextDataset.Load(),
		NextVersion: c.nextVersion.Load(),
		Policies:    make(map[string]core.Policy, len(m.policies.m)),
	}
	for folder, p := range m.policies.m {
		st.Policies[folder] = p
	}
	for _, sh := range c.ds {
		for _, ds := range sh.byName {
			sd := snapDataset{
				ID:          ds.id,
				Name:        ds.name,
				Folder:      ds.folder,
				Replication: ds.replication,
				Versions:    make([]snapVersion, 0, len(ds.versions)),
			}
			for _, v := range ds.versions {
				sv := snapVersion{
					ID:          v.id,
					FileName:    v.fileName,
					FileSize:    v.fileSize,
					ChunkSize:   v.chunkSize,
					Variable:    v.variable,
					NewBytes:    v.newBytes,
					CommittedAt: v.committedAt,
					Writer:      v.writer,
					Chunks:      make([]snapChunk, len(v.chunks)),
				}
				locs := c.buildMap(ds, v, false).Locations
				for i, ref := range v.chunks {
					sv.Chunks[i] = snapChunk{ID: ref.ID, Size: ref.Size, Locations: locs[i]}
				}
				sd.Versions = append(sd.Versions, sv)
			}
			st.Datasets = append(st.Datasets, sd)
		}
	}
	sort.Slice(st.Datasets, func(a, b int) bool { return st.Datasets[a].Name < st.Datasets[b].Name })
	m.policies.mu.RUnlock()
	for _, sh := range c.ds {
		sh.mu.RUnlock()
	}
	return st
}

// writeSnapshotFile durably writes a snapshot: temp file, fsync, rename,
// directory fsync. The directory fsync matters because the journal is
// truncated right after — losing the rename to a crash while the
// truncation survived would lose the covered prefix entirely.
func writeSnapshotFile(path string, st *snapshotState) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("snapshot: marshal: %w", err)
	}
	sum := sha1.Sum(payload)
	hdr, err := json.Marshal(snapshotHeader{
		Magic:     snapshotMagic,
		Version:   1,
		Watermark: st.Watermark,
		Size:      int64(len(payload)),
		SHA1:      hex.EncodeToString(sum[:]),
	})
	if err != nil {
		return fmt.Errorf("snapshot: marshal header: %w", err)
	}
	if err := fpSnapshotWrite.Hit(); err != nil {
		return fmt.Errorf("snapshot: write: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.Write(append(hdr, '\n')); err == nil {
		_, err = w.Write(payload)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: write %s: %w", tmp, err)
	}
	if err := fpSnapshotRename.Hit(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: rename: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("snapshot: rename: %w", err)
	}
	if dir, err := os.Open(filepath.Dir(path)); err == nil {
		dir.Sync()
		dir.Close()
	}
	return nil
}

// readSnapshotFile loads and checksum-verifies one snapshot file.
func readSnapshotFile(path string) (*snapshotState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: header: %w", path, err)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return nil, fmt.Errorf("snapshot %s: header: %w", path, err)
	}
	if hdr.Magic != snapshotMagic || hdr.Version != 1 {
		return nil, fmt.Errorf("snapshot %s: bad magic/version %q/%d", path, hdr.Magic, hdr.Version)
	}
	if hdr.Size < 0 || hdr.Size > 1<<40 {
		return nil, fmt.Errorf("snapshot %s: implausible payload size %d", path, hdr.Size)
	}
	payload := make([]byte, hdr.Size)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("snapshot %s: payload: %w", path, err)
	}
	sum := sha1.Sum(payload)
	if hex.EncodeToString(sum[:]) != hdr.SHA1 {
		return nil, fmt.Errorf("snapshot %s: checksum mismatch: %w", path, core.ErrIntegrity)
	}
	var st snapshotState
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, fmt.Errorf("snapshot %s: decode: %w", path, err)
	}
	if st.Watermark != hdr.Watermark {
		return nil, fmt.Errorf("snapshot %s: watermark %d in payload, %d in header", path, st.Watermark, hdr.Watermark)
	}
	return &st, nil
}

// loadSnapshot finds the newest valid snapshot for the configured journal,
// installs it into the (still empty) catalog, and returns its watermark. A
// snapshot that fails to read or verify is skipped with a warning and the
// next-newest is tried — recovery degrades to a longer journal replay, it
// never refuses to start over a bad snapshot file.
func (m *Manager) loadSnapshot() (uint64, error) {
	paths, err := listSnapshots(m.cfg.JournalPath)
	if err != nil {
		return 0, err
	}
	for _, p := range paths {
		st, err := readSnapshotFile(p)
		if err != nil {
			m.logf("snapshot %s unusable (%v); trying previous", p, err)
			continue
		}
		if err := m.installSnapshot(st); err != nil {
			return 0, fmt.Errorf("install %s: %w", p, err)
		}
		m.ctr.snapshotSeq.Store(int64(st.Watermark))
		m.logf("loaded snapshot %s: %d datasets at watermark %d", filepath.Base(p), len(st.Datasets), st.Watermark)
		return st.Watermark, nil
	}
	return 0, nil
}

// installSnapshot populates the catalog and policy table from a snapshot
// image. Runs single-threaded at startup before the manager serves.
func (m *Manager) installSnapshot(st *snapshotState) error {
	for folder, p := range st.Policies {
		m.policies.set(folder, p)
	}
	return m.cat.installSnapshot(st)
}

func (c *catalog) installSnapshot(st *snapshotState) error {
	for _, sd := range st.Datasets {
		sh := c.dsShardOf(sd.Name)
		sh.lock()
		if _, dup := sh.byName[sd.Name]; dup {
			sh.unlock()
			return fmt.Errorf("snapshot: duplicate dataset %q", sd.Name)
		}
		ds := &dataset{
			id:          c.claimDatasetID(sd.ID),
			name:        sd.Name,
			folder:      sd.Folder,
			replication: sd.Replication,
		}
		for _, sv := range sd.Versions {
			chunks := make([]proto.CommitChunk, len(sv.Chunks))
			refs := make([]core.ChunkRef, len(sv.Chunks))
			for i, sc := range sv.Chunks {
				chunks[i] = proto.CommitChunk{ID: sc.ID, Size: sc.Size, Locations: sc.Locations}
				refs[i] = core.ChunkRef{Index: i, ID: sc.ID, Size: sc.Size}
			}
			// The snapshot already validated this state when it was live,
			// and it keeps the version's own newBytes.
			if _, err := c.insertTrusted(ds, &version{
				id:          sv.ID,
				fileName:    sv.FileName,
				fileSize:    sv.FileSize,
				chunkSize:   sv.ChunkSize,
				variable:    sv.Variable,
				chunks:      refs,
				newBytes:    sv.NewBytes,
				committedAt: sv.CommittedAt,
				writer:      sv.Writer,
			}, chunks); err != nil {
				sh.unlock()
				return fmt.Errorf("snapshot: %s: %w", sv.FileName, err)
			}
		}
		sh.byName[sd.Name] = ds
		sh.unlock()
	}
	// Counters stored verbatim so post-recovery allocations match what a
	// full journal replay would have handed out.
	raiseFloor(&c.nextDataset, st.NextDataset)
	raiseFloor(&c.nextVersion, st.NextVersion)
	return nil
}

// Snapshot serializes the live catalog under a consistency cut, durably
// writes it beside the journal, truncates the journal, and prunes all but
// the two newest snapshot files. It returns the snapshot's watermark.
//
// Truncation deliberately lags one snapshot: the journal keeps every entry
// past the PREVIOUS snapshot's watermark, not this one's. Recovery prefers
// the newest snapshot plus the (larger than necessary) journal suffix — the
// watermark skip makes the overlap harmless — and if the newest snapshot
// proves corrupt, the previous snapshot plus the same journal still
// reconstructs everything. Keeping two snapshots without lagging the
// truncation would make the fallback silently lossy.
func (m *Manager) Snapshot() (uint64, error) {
	return m.snapshotOnce(true)
}

// snapshotOnce is Snapshot with the journal truncation separable, so tests
// can compare snapshot+suffix recovery against a full-journal replay of
// the very same history.
func (m *Manager) snapshotOnce(truncate bool) (uint64, error) {
	if m.journal == nil {
		return 0, fmt.Errorf("manager: snapshots require a journal")
	}
	st := m.captureSnapshot()
	if err := writeSnapshotFile(snapshotPath(m.cfg.JournalPath, st.Watermark), st); err != nil {
		return 0, err
	}
	m.ctr.snapshots.Add(1)
	m.ctr.snapshotSeq.Store(int64(st.Watermark))
	if !truncate {
		return st.Watermark, nil
	}
	cut := m.previousWatermark(st.Watermark)
	kept, dropped, err := m.journal.truncateTo(cut)
	if err != nil {
		return st.Watermark, fmt.Errorf("manager: truncate journal after snapshot: %w", err)
	}
	m.logf("snapshot at watermark %d: %d datasets; journal truncated to watermark %d (%d kept, %d dropped)",
		st.Watermark, len(st.Datasets), cut, kept, dropped)
	m.pruneSnapshots()
	return st.Watermark, nil
}

// previousWatermark returns the newest snapshot watermark strictly below
// latest (0 when none): the lag-one truncation cut.
func (m *Manager) previousWatermark(latest uint64) uint64 {
	paths, err := listSnapshots(m.cfg.JournalPath)
	if err != nil {
		return 0
	}
	for _, p := range paths {
		w, err := snapshotWatermark(p)
		if err != nil {
			continue
		}
		if w < latest {
			return w
		}
	}
	return 0
}

// snapshotWatermark parses the watermark out of a snapshot file name.
func snapshotWatermark(path string) (uint64, error) {
	dot := strings.LastIndexByte(path, '.')
	if dot < 0 {
		return 0, fmt.Errorf("snapshot: unparseable name %q", path)
	}
	return strconv.ParseUint(path[dot+1:], 10, 64)
}

// pruneSnapshots removes all but the two newest snapshot files (the
// newest, plus one fallback should it prove corrupt).
func (m *Manager) pruneSnapshots() {
	paths, err := listSnapshots(m.cfg.JournalPath)
	if err != nil || len(paths) <= 2 {
		return
	}
	for _, p := range paths[2:] {
		if err := os.Remove(p); err != nil {
			m.logf("prune snapshot %s: %v", p, err)
		}
	}
}

// snapshotLoop periodically snapshots and truncates (Config.SnapshotInterval).
func (m *Manager) snapshotLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.SnapshotInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			if _, err := m.Snapshot(); err != nil {
				m.logf("periodic snapshot failed: %v", err)
			}
		}
	}
}
