package manager

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/hashing"
	"stdchk/internal/namespace"
	"stdchk/internal/proto"
)

// catalog is the manager's metadata heart: datasets and their version
// chains, plus the global content-addressed chunk index that implements
// copy-on-write sharing between incremental checkpoint versions
// (paper §IV.C "Architectural support").
//
// The paper argues the manager is off the critical path because it
// "sustains well over 1,000 transactions per second" (§V.E). To keep that
// true under client scale-out, the catalog is lock-striped: datasets hash
// onto independent dataset shards and the content index hashes onto
// independent chunk shards, so alloc/commit/dedup traffic on different
// datasets never contends on a global lock, and read-mostly paths
// (getMap, stat, hasChunks) take per-stripe RLocks. Global scalars
// (ID allocators, byte counters) are atomics.
//
// Lock ordering: a dataset-shard lock may be held while chunk-shard locks
// are acquired (commit publish, map building, deletes), never the
// reverse, and no two shards of the same kind are ever held together.
// The dataset-ID index mutex is a leaf lock.
type catalog struct {
	ds []*datasetShard // len is a power of two
	ck []*chunkShard   // len is a power of two

	nextDataset  atomic.Uint64
	nextVersion  atomic.Uint64
	logicalBytes atomic.Int64 // sum of committed file sizes
	storedBytes  atomic.Int64 // bytes of unique chunks actually stored

	// ids guards dataset-ID uniqueness across shards. It is touched only
	// when a dataset is created, restored, or fully deleted — never on
	// the per-version hot path.
	ids struct {
		mu   sync.Mutex
		used map[core.DatasetID]struct{}
	}

	// journalHook, when set, is invoked inside the dataset stripe's
	// critical section for every commit and delete, BEFORE the mutation
	// becomes visible to other stripes' clients. That placement is what
	// keeps the journal globally ordered with respect to causality: a
	// copy-on-write commit can only reference a chunk whose publishing
	// commit already ran its hook, so replay never meets a reference to a
	// chunk it has not seen uploaded. The manager sets the hook after
	// journal replay (nil during replay, so replayed entries are not
	// re-journaled). The journal's own mutex is a leaf lock.
	//
	// A hook error aborts the mutation: the version is never created (or
	// the delete never applied), so the catalog can never hold state the
	// journal failed to capture — acknowledged is a subset of journaled.
	// The converse window (journaled but the caller crashed before
	// acknowledging) is benign redo-log semantics: replay resurrects an
	// unacknowledged commit, never loses an acknowledged one.
	journalHook func(journalEntry) error

	// replaying is set during single-threaded journal replay. A replayed
	// copy-on-write reference may name a chunk the journal has already
	// deleted: live, the committing client's pending reference kept the
	// chunk alive across a concurrent delete on another stripe, but the
	// sequential journal cannot express that overlap. Replay therefore
	// re-creates the entry (with no locations — they died with the
	// delete; benefactor GC inventory or quorum recovery re-learns them)
	// instead of refusing to start.
	replaying bool

	// now is the clock a live commit reads its commit time from (tests
	// pin it). replayAt, when set, is the commit time the journal entry
	// being replayed recorded, and a commit takes it instead: a replayed
	// version keeps the instant it was committed, as a snapshot's does.
	// Entries written before the journal kept commit times leave it zero
	// and read the clock.
	now      func() time.Time
	replayAt time.Time
}

// stripedMu is one instrumented lock stripe: an RWMutex that counts
// acquisitions and how many of them found the stripe already held
// (TryLock failed). The contended/ops ratio is the direct measure of
// metadata-plane serialization. Every shard type embeds it so the
// accounting lives in exactly one place.
type stripedMu struct {
	mu        sync.RWMutex
	ops       atomic.Int64
	contended atomic.Int64
}

func (s *stripedMu) lock() {
	if !s.mu.TryLock() {
		s.contended.Add(1)
		s.mu.Lock()
	}
	s.ops.Add(1)
}

func (s *stripedMu) unlock() { s.mu.Unlock() }

func (s *stripedMu) rlock() {
	if !s.mu.TryRLock() {
		s.contended.Add(1)
		s.mu.RLock()
	}
	s.ops.Add(1)
}

func (s *stripedMu) runlock() { s.mu.RUnlock() }

func (s *stripedMu) snapshot() proto.StripeStats {
	return proto.StripeStats{Ops: s.ops.Load(), Contended: s.contended.Load()}
}

type datasetShard struct {
	stripedMu
	byName map[string]*dataset // dataset key (namespace.DatasetOf) -> chain
}

type chunkShard struct {
	stripedMu
	chunks map[core.ChunkID]*chunkEntry
}

type dataset struct {
	id          core.DatasetID
	name        string // dataset key, e.g. "blast.n1"
	folder      string
	replication int
	versions    []*version // commit order
}

type version struct {
	id          core.VersionID
	fileName    string // as written, e.g. "blast.n1.t7"
	fileSize    int64
	chunkSize   int64 // striping size, or max span bound when variable
	variable    bool  // content-defined chunk boundaries
	chunks      []core.ChunkRef
	newBytes    int64
	committedAt time.Time
	writer      string // client identity declared at alloc ("" = none)
}

type chunkEntry struct {
	size int64
	refs int
	// pending counts references held by in-flight (not yet published)
	// commits. refs-pending is the published reference count: dedup
	// probes and copy-on-write validation only trust published chunks,
	// so a commit that later fails validation and rolls back can never
	// have been observed — the same visibility the single-lock catalog
	// gave by validating and publishing under one critical section. GC
	// membership (referenced) deliberately includes pending references,
	// keeping in-flight uploads safe from collection.
	pending   int
	locations map[core.NodeID]struct{}
}

// published is the publicly visible reference count.
func (e *chunkEntry) published() int { return e.refs - e.pending }

// defaultStripes is the lock-stripe count of every shipped manager's
// metadata plane (dataset catalog, chunk index, session table). 16 stripes
// keep the per-stripe collision probability low for dozens of concurrent
// writers while the per-shard maps stay cache-friendly.
const defaultStripes = 16

// maxStripes bounds the stripe counts tests ask for.
const maxStripes = 256

// normalizeStripes rounds n up to a power of two in [1, maxStripes].
func normalizeStripes(n int) int {
	if n > maxStripes {
		n = maxStripes
	}
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// newCatalog builds a catalog with the default stripe count.
func newCatalog() *catalog { return newCatalogStripes(defaultStripes) }

// newCatalogStripes builds a catalog with `stripes` dataset stripes and the
// same number of chunk-index stripes. stripes is rounded up to a power of
// two; 1 is the single-lock reference the replay property tests compare
// the striped catalog against.
func newCatalogStripes(stripes int) *catalog {
	n := normalizeStripes(stripes)
	c := &catalog{
		ds: make([]*datasetShard, n),
		ck: make([]*chunkShard, n),
	}
	for i := range c.ds {
		c.ds[i] = &datasetShard{byName: make(map[string]*dataset)}
	}
	for i := range c.ck {
		c.ck[i] = &chunkShard{chunks: make(map[core.ChunkID]*chunkEntry)}
	}
	c.ids.used = make(map[core.DatasetID]struct{})
	c.now = time.Now
	return c
}

// dsShardOf hashes a dataset key onto its shard — the same FNV-1a the
// federation layer partitions the namespace with (hashing.FNV1aString).
func (c *catalog) dsShardOf(key string) *datasetShard {
	return c.ds[hashing.FNV1aString(key)&uint64(len(c.ds)-1)]
}

// ckIndexOf maps a chunk ID onto a chunk-shard index. Chunk IDs are SHA-1
// hashes, so the leading bytes are uniform.
func (c *catalog) ckIndexOf(id core.ChunkID) uint32 {
	return uint32(binary.BigEndian.Uint64(id[:8]) & uint64(len(c.ck)-1))
}

// raiseFloor lifts an atomic ID allocator to at least v, so subsequent
// Add(1) allocations can never collide with an externally supplied ID.
func raiseFloor(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// claimDatasetID reserves a dataset ID. want is tried first (0 means
// "allocate fresh"); if it is taken, a fresh ID is allocated.
func (c *catalog) claimDatasetID(want core.DatasetID) core.DatasetID {
	c.ids.mu.Lock()
	defer c.ids.mu.Unlock()
	if want != 0 {
		raiseFloor(&c.nextDataset, uint64(want))
		if _, taken := c.ids.used[want]; !taken {
			c.ids.used[want] = struct{}{}
			return want
		}
	}
	id := core.DatasetID(c.nextDataset.Add(1))
	for {
		if _, taken := c.ids.used[id]; !taken {
			break
		}
		id = core.DatasetID(c.nextDataset.Add(1))
	}
	c.ids.used[id] = struct{}{}
	return id
}

// releaseDatasetID forgets a fully deleted dataset's ID.
func (c *catalog) releaseDatasetID(id core.DatasetID) {
	c.ids.mu.Lock()
	delete(c.ids.used, id)
	c.ids.mu.Unlock()
}

// hasChunks answers the incremental-checkpointing dedup query: which of
// the given hashes are already stored (referenced by at least one
// committed version). The probe takes only per-stripe read locks, one
// acquisition per touched stripe.
func (c *catalog) hasChunks(ids []core.ChunkID) []bool {
	out := make([]bool, len(ids))
	if len(ids) == 0 {
		return out
	}
	shardOf := make([]uint32, len(ids))
	var touched [maxStripes / 64]uint64 // bitmap over stripes
	for i, id := range ids {
		si := c.ckIndexOf(id)
		shardOf[i] = si
		touched[si>>6] |= 1 << (si & 63)
	}
	for si := range c.ck {
		if touched[si>>6]&(1<<(uint(si)&63)) == 0 {
			continue
		}
		sh := c.ck[si]
		sh.rlock()
		for i, s := range shardOf {
			if int(s) != si {
				continue
			}
			e, ok := sh.chunks[ids[i]]
			out[i] = ok && e.published() > 0 && len(e.locations) > 0
		}
		sh.runlock()
	}
	return out
}

// chunkCharge is one unique chunk of a commit or restore: how to reference
// it in the content index.
type chunkCharge struct {
	id   core.ChunkID
	size int64
	locs []core.NodeID
	// requireExisting marks a copy-on-write reference: the chunk must
	// already be stored (commit validation).
	requireExisting bool
	// countNew credits newBytes/storedBytes when this charge creates the
	// first reference.
	countNew bool
}

// chargeChunks takes one pending reference per charge, creating entries
// as needed, atomically per chunk (validate-and-increment under the
// stripe lock, so a concurrent delete cannot orphan a chunk between check
// and use). References stay pending — invisible to dedup probes and
// copy-on-write validation — until confirmChunks publishes them; on error
// every reference taken so far is rolled back as if it never existed.
func (c *catalog) chargeChunks(fileName string, charges []chunkCharge) (int64, error) {
	byShard := make(map[uint32][]int)
	for i := range charges {
		si := c.ckIndexOf(charges[i].id)
		byShard[si] = append(byShard[si], i)
	}
	var newBytes int64
	applied := make([]int, 0, len(charges))
	var chargeErr error
	for si, idx := range byShard {
		sh := c.ck[si]
		sh.lock()
		for _, i := range idx {
			ch := &charges[i]
			e, ok := sh.chunks[ch.id]
			if ch.requireExisting {
				// Copy-on-write references only trust published chunks,
				// as the single-lock catalog did: an in-flight commit's
				// uploads may yet roll back. During journal replay the
				// reference is taken on faith instead (see the replaying
				// field): the live run already validated it under
				// interleavings the sequential journal cannot reproduce.
				if (!ok || e.published() <= 0 || len(e.locations) == 0) && !c.replaying {
					chargeErr = fmt.Errorf("commit %s: shared chunk %s unknown: %w", fileName, ch.id.Short(), core.ErrNotFound)
					break
				}
				if ok && e.size != ch.size {
					chargeErr = fmt.Errorf("commit %s: shared chunk %s size %d, index says %d: %w",
						fileName, ch.id.Short(), ch.size, e.size, core.ErrIntegrity)
					break
				}
			}
			if !ok {
				e = &chunkEntry{size: ch.size, locations: make(map[core.NodeID]struct{})}
				sh.chunks[ch.id] = e
				if ch.requireExisting && c.replaying {
					// Lenient replay re-created an entry the journal's
					// delete order removed. The bytes are stored as far
					// as the system knows, so credit the global counter
					// (a later delete will debit it) — but not this
					// version's newBytes: it did not upload them.
					c.storedBytes.Add(ch.size)
				}
			}
			// First-reference crediting. If two commits race to upload
			// the same new chunk and the one that took the first
			// reference later rolls back, the survivor's per-version
			// newBytes undercounts that chunk (the global storedBytes
			// stays balanced) — a stats nuance accepted in exchange for
			// not coordinating accounting across in-flight commits.
			if e.refs == 0 && ch.countNew {
				newBytes += ch.size
				c.storedBytes.Add(ch.size)
			}
			e.refs++
			e.pending++
			for _, loc := range ch.locs {
				e.locations[loc] = struct{}{}
			}
			applied = append(applied, i)
		}
		sh.unlock()
		if chargeErr != nil {
			sub := make([]chunkCharge, len(applied))
			for j, i := range applied {
				sub[j] = charges[i]
			}
			c.unchargeChunks(sub)
			return 0, chargeErr
		}
	}
	return newBytes, nil
}

// forEachIDShard groups chunk IDs by stripe and runs fn once per touched
// stripe under its write lock — one acquisition per stripe instead of one
// per chunk for the batch mutation paths below.
func (c *catalog) forEachIDShard(ids []core.ChunkID, fn func(sh *chunkShard, idx []int)) {
	if len(ids) == 0 {
		return
	}
	byShard := make(map[uint32][]int)
	for i, id := range ids {
		si := c.ckIndexOf(id)
		byShard[si] = append(byShard[si], i)
	}
	for si, idx := range byShard {
		sh := c.ck[si]
		sh.lock()
		fn(sh, idx)
		sh.unlock()
	}
}

func chargeIDs(charges []chunkCharge) []core.ChunkID {
	ids := make([]core.ChunkID, len(charges))
	for i := range charges {
		ids[i] = charges[i].id
	}
	return ids
}

// confirmChunks publishes references taken by chargeChunks once their
// version is visible in a dataset shard.
func (c *catalog) confirmChunks(charges []chunkCharge) {
	c.forEachIDShard(chargeIDs(charges), func(sh *chunkShard, idx []int) {
		for _, i := range idx {
			if e, ok := sh.chunks[charges[i].id]; ok {
				e.pending--
			}
		}
	})
}

// unchargeChunks rolls back pending references taken by a failed
// chargeChunks. Entries whose last reference this was disappear; chunk
// bytes already uploaded for them become unreferenced and the benefactor
// GC reclaims them.
func (c *catalog) unchargeChunks(charges []chunkCharge) {
	c.forEachIDShard(chargeIDs(charges), func(sh *chunkShard, idx []int) {
		for _, i := range idx {
			if e, ok := sh.chunks[charges[i].id]; ok {
				e.pending--
				e.refs--
				if e.refs <= 0 {
					c.storedBytes.Add(-e.size)
					delete(sh.chunks, charges[i].id)
				}
			}
		}
	})
}

// dropChunkRefs removes one reference per chunk ID and returns the chunks
// whose reference count dropped to zero (now orphaned; benefactor GC reaps
// them). IDs must be unique.
func (c *catalog) dropChunkRefs(ids []core.ChunkID) []core.ChunkID {
	var orphans []core.ChunkID
	c.forEachIDShard(ids, func(sh *chunkShard, idx []int) {
		for _, i := range idx {
			e, ok := sh.chunks[ids[i]]
			if !ok {
				continue
			}
			e.refs--
			if e.refs <= 0 {
				c.storedBytes.Add(-e.size)
				delete(sh.chunks, ids[i])
				orphans = append(orphans, ids[i])
			}
		}
	})
	return orphans
}

// chargePlan builds the unique-chunk charge list for a chunk sequence:
// the first occurrence takes the reference, later occurrences only merge
// locations. trusted marks chunks from an already-validated source (a
// recovered chunk-map): location-less chunks are then created rather than
// required to exist, and first references always count as stored bytes.
func chargePlan(chunks []proto.CommitChunk, trusted bool) []chunkCharge {
	charges := make([]chunkCharge, 0, len(chunks))
	seen := make(map[core.ChunkID]int, len(chunks))
	for _, ch := range chunks {
		if at, dup := seen[ch.ID]; dup {
			cg := &charges[at]
			cg.locs = append(cg.locs, ch.Locations...)
			if len(ch.Locations) == 0 && !trusted {
				cg.requireExisting = true
			}
			continue
		}
		seen[ch.ID] = len(charges)
		charges = append(charges, chunkCharge{
			id:              ch.ID,
			size:            ch.Size,
			locs:            append([]core.NodeID(nil), ch.Locations...),
			requireExisting: len(ch.Locations) == 0 && !trusted,
			countNew:        len(ch.Locations) > 0 || trusted,
		})
	}
	return charges
}

// commitPlan turns a commit's chunk list into validated refs plus the
// unique-chunk charge plan.
func commitPlan(fileName string, chunkSize int64, variable bool, fileSize int64, chunks []proto.CommitChunk) ([]core.ChunkRef, []chunkCharge, error) {
	refs := make([]core.ChunkRef, len(chunks))
	var total int64
	for i, ch := range chunks {
		if ch.Size <= 0 || ch.Size > chunkSize {
			return nil, nil, fmt.Errorf("commit %s: chunk %d size %d invalid", fileName, i, ch.Size)
		}
		if !variable && i < len(chunks)-1 && ch.Size != chunkSize {
			return nil, nil, fmt.Errorf("commit %s: non-final chunk %d has size %d, fixed chunking wants %d", fileName, i, ch.Size, chunkSize)
		}
		refs[i] = core.ChunkRef{Index: i, ID: ch.ID, Size: ch.Size}
		total += ch.Size
	}
	if total != fileSize {
		return nil, nil, fmt.Errorf("commit %s: chunks sum to %d, file size %d", fileName, total, fileSize)
	}
	return refs, chargePlan(chunks, false), nil
}

// commit atomically publishes a version. Chunks without explicit locations
// must already exist in the content index (copy-on-write reuse); chunks
// with locations are new uploads. Returns the version's identity and the
// number of newly stored bytes; the map itself is built only when read
// (getMap).
//
// Copy-on-write sharing is purely content-addressed, so versions committed
// with different chunking regimes — or different CbCH boundary sets — share
// whatever chunks happen to hash identically; the per-chunk Size recorded
// in the content index is the only cross-version size constraint.
//
// Concurrency: chunk references are taken first as pending (each
// atomically under its stripe lock, with rollback on validation failure),
// then the version is published under the dataset's stripe lock, then the
// references are confirmed. A version is therefore never visible with
// unreferenced chunks, a concurrent delete can never orphan a chunk this
// commit already holds a reference to, and a commit that fails validation
// was never observable by dedup probes or copy-on-write validation — the
// same all-or-nothing visibility the single-lock catalog gave.
func (c *catalog) commit(fileName string, folder string, replication int, chunkSize int64, variable bool, fileSize int64, chunks []proto.CommitChunk, writer string) (core.DatasetID, core.VersionID, int64, error) {
	key := namespace.DatasetOf(fileName)
	refs, charges, err := commitPlan(fileName, chunkSize, variable, fileSize, chunks)
	if err != nil {
		return 0, 0, 0, err
	}
	newBytes, err := c.chargeChunks(fileName, charges)
	if err != nil {
		return 0, 0, 0, err
	}

	sh := c.dsShardOf(key)
	sh.lock()
	ds, ok := sh.byName[key]
	created := false
	if !ok {
		ds = &dataset{
			id:     c.claimDatasetID(0),
			name:   key,
			folder: namespace.FolderOf(fileName),
		}
		sh.byName[key] = ds
		created = true
	}
	// Journal before any effect of this commit becomes visible. On journal
	// failure the commit rolls back completely — pending chunk references
	// were never observable, and a dataset shell created above is removed —
	// so an acknowledged commit is always a journaled one.
	var verID core.VersionID
	allocID := func() { verID = core.VersionID(c.nextVersion.Add(1)) }
	at := c.replayAt
	if at.IsZero() {
		at = c.now()
	}
	if c.journalHook == nil {
		allocID()
	} else {
		if err := c.journalHook(journalEntry{
			Op: "commit", Name: fileName, Replication: replication,
			ChunkSize: chunkSize, Variable: variable, FileSize: fileSize, Chunks: chunks,
			Writer: writer, CommittedAt: at, ticketed: allocID,
		}); err != nil {
			if created {
				delete(sh.byName, key)
				c.releaseDatasetID(ds.id)
			}
			sh.unlock()
			c.unchargeChunks(charges)
			return 0, 0, 0, fmt.Errorf("commit %s: journal: %w", fileName, err)
		}
	}
	if replication > 0 {
		ds.replication = replication
	}
	v := &version{
		id:          verID,
		fileName:    fileName,
		fileSize:    fileSize,
		chunkSize:   chunkSize,
		variable:    variable,
		chunks:      refs,
		newBytes:    newBytes,
		committedAt: at,
		writer:      writer,
	}
	ds.versions = append(ds.versions, v)
	c.logicalBytes.Add(fileSize)
	// Confirm inside the dataset critical section: the instant the version
	// becomes visible (lock release) its chunks are published, and no
	// delete of this version can interleave between publish and confirm
	// (which could otherwise decrement a re-created entry's pending count).
	c.confirmChunks(charges)
	sh.unlock()
	return ds.id, verID, newBytes, nil
}

// insertTrusted adds a version whose chunks are known to be stored to ds,
// whose stripe the caller holds locked: the one insert that snapshot
// install and quorum restore share. The charges are trusted: a chunk
// without locations is re-created, and a first reference counts toward
// storedBytes (chargePlan merges locations across occurrences). v.id
// lifts the version allocator's floor, so later commits never collide
// with it. It returns the bytes the version's first references stored.
func (c *catalog) insertTrusted(ds *dataset, v *version, chunks []proto.CommitChunk) (int64, error) {
	raiseFloor(&c.nextVersion, uint64(v.id))
	charges := chargePlan(chunks, true)
	newBytes, err := c.chargeChunks(v.fileName, charges)
	if err != nil {
		return 0, err
	}
	ds.versions = append(ds.versions, v)
	c.logicalBytes.Add(v.fileSize)
	c.confirmChunks(charges)
	return newBytes, nil
}

// buildMap materializes a core.ChunkMap for a version, with current
// locations from the content index, sorted. Callers hold the dataset's
// shard lock (read or write); chunk stripes are read-locked per touched
// stripe, counted in the stripe metrics when instrumented (see
// forEachRefShard).
func (c *catalog) buildMap(ds *dataset, v *version, instrumented bool) *core.ChunkMap {
	m := &core.ChunkMap{
		Dataset:   ds.id,
		Version:   v.id,
		FileSize:  v.fileSize,
		ChunkSize: v.chunkSize,
		Variable:  v.variable,
		Chunks:    append([]core.ChunkRef(nil), v.chunks...),
		Locations: make([][]core.NodeID, len(v.chunks)),
		CreatedAt: v.committedAt,
	}
	c.forEachRefShard(v.chunks, instrumented, func(sh *chunkShard, idx []int) {
		for _, i := range idx {
			e := sh.chunks[v.chunks[i].ID]
			if e == nil {
				continue
			}
			locs := make([]core.NodeID, 0, len(e.locations))
			for id := range e.locations {
				locs = append(locs, id)
			}
			slices.Sort(locs)
			m.Locations[i] = locs
		}
	})
	return m
}

// forEachRefShard groups refs by chunk stripe and runs fn once per
// touched stripe under its read lock. instrumented selects whether the
// acquisitions count toward the stripe ops/contention metrics: foreground
// client paths do, background maintenance scans (replication) do not, so
// the reported contention ratio measures client-driven serialization.
func (c *catalog) forEachRefShard(refs []core.ChunkRef, instrumented bool, fn func(sh *chunkShard, idx []int)) {
	if len(refs) == 0 {
		return
	}
	// Ref indices sorted by stripe: each stripe's share is one run, and the
	// grouping costs one allocation whatever the map's size.
	shard := func(i int) uint32 { return c.ckIndexOf(refs[i].ID) }
	order := make([]int, len(refs))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(shard(a), shard(b)) })
	for start := 0; start < len(order); {
		si := shard(order[start])
		end := start + 1
		for end < len(order) && shard(order[end]) == si {
			end++
		}
		sh := c.ck[si]
		if instrumented {
			sh.rlock()
		} else {
			sh.mu.RLock()
		}
		fn(sh, order[start:end])
		sh.runlock()
		start = end
	}
}

// getMap returns the chunk-map for a file name or dataset key. Version 0
// means the latest version; a full A.Ni.Tj name selects that timestep's
// version if present. When the name resolves to have (non-zero), the
// caller already holds that map: getMap answers the file name and a nil
// map, building nothing.
//
// Otherwise every call builds the map afresh under the dataset stripe's
// RLock, so a served map always carries the content index's current
// replica sets — including replicas background repair added after the
// commit — and no commit or delete of this dataset can interleave between
// version resolution and the build.
func (c *catalog) getMap(name string, ver, have core.VersionID) (string, *core.ChunkMap, error) {
	sh := c.dsShardOf(namespace.DatasetOf(name))
	sh.rlock()
	defer sh.runlock()
	ds, v, err := c.lookupLocked(sh, name, ver)
	if err != nil {
		return "", nil, err
	}
	if v.id == have {
		return v.fileName, nil, nil
	}
	return v.fileName, c.buildMap(ds, v, true), nil
}

// statVersion resolves a name to its committed version identity — the
// MStatVersion answer — or, when asOf is set, to the newest version
// committed at or before that instant. It touches only the dataset stripe
// (RLock), no chunk stripes and no map assembly: the cheapest possible
// answer to "which version does this name, or this instant, resolve to?".
func (c *catalog) statVersion(name string, asOf time.Time) (string, core.DatasetID, core.VersionID, error) {
	sh := c.dsShardOf(namespace.DatasetOf(name))
	sh.rlock()
	defer sh.runlock()
	var (
		ds  *dataset
		v   *version
		err error
	)
	if asOf.IsZero() {
		ds, v, err = c.lookupLocked(sh, name, 0)
	} else {
		ds, v, err = c.lookupAsOfLocked(sh, name, asOf)
	}
	if err != nil {
		return "", 0, 0, err
	}
	return v.fileName, ds.id, v.id, nil
}

// lookupAsOfLocked resolves a name to the newest version committed at or
// before asOf. Callers hold the dataset shard's lock.
func (c *catalog) lookupAsOfLocked(sh *datasetShard, name string, asOf time.Time) (*dataset, *version, error) {
	key := namespace.DatasetOf(name)
	ds, ok := sh.byName[key]
	if !ok || len(ds.versions) == 0 {
		return nil, nil, fmt.Errorf("dataset %q: %w", name, core.ErrNotFound)
	}
	// Versions are ordered oldest-first: the first one at or before asOf,
	// scanning from the newest, is the answer.
	for i := len(ds.versions) - 1; i >= 0; i-- {
		if v := ds.versions[i]; !v.committedAt.After(asOf) {
			return ds, v, nil
		}
	}
	return nil, nil, fmt.Errorf("dataset %q has no version at or before %s: %w",
		name, asOf.Format(time.RFC3339), core.ErrNotFound)
}

// lookupLocked resolves a name (+ optional explicit version) to a version.
// Callers hold the dataset shard's lock.
func (c *catalog) lookupLocked(sh *datasetShard, name string, ver core.VersionID) (*dataset, *version, error) {
	key := namespace.DatasetOf(name)
	ds, ok := sh.byName[key]
	if !ok {
		return nil, nil, fmt.Errorf("dataset %q: %w", name, core.ErrNotFound)
	}
	if len(ds.versions) == 0 {
		return nil, nil, fmt.Errorf("dataset %q has no versions: %w", name, core.ErrNotFound)
	}
	if ver != 0 {
		for _, v := range ds.versions {
			if v.id == ver {
				return ds, v, nil
			}
		}
		return nil, nil, fmt.Errorf("dataset %q version %d: %w", name, ver, core.ErrNotFound)
	}
	if name != key {
		// Full file name: prefer the exact timestep.
		for i := len(ds.versions) - 1; i >= 0; i-- {
			if ds.versions[i].fileName == name {
				return ds, ds.versions[i], nil
			}
		}
		return nil, nil, fmt.Errorf("file %q: %w", name, core.ErrNotFound)
	}
	return ds, ds.versions[len(ds.versions)-1], nil
}

// history returns a dataset's version lineage, oldest first, with
// chunk-sharing measured against each version's immediate predecessor.
// It touches only the dataset stripe (RLock) — no chunk stripes: sharing
// is computed from the versions' own chunk-ref lists.
func (c *catalog) history(name string) (proto.HistoryResp, error) {
	key := namespace.DatasetOf(name)
	sh := c.dsShardOf(key)
	sh.rlock()
	defer sh.runlock()
	ds, ok := sh.byName[key]
	if !ok || len(ds.versions) == 0 {
		return proto.HistoryResp{}, fmt.Errorf("dataset %q: %w", name, core.ErrNotFound)
	}
	resp := proto.HistoryResp{Dataset: ds.id, Folder: ds.folder}
	var prev map[core.ChunkID]struct{}
	for _, v := range ds.versions {
		cur := make(map[core.ChunkID]struct{}, len(v.chunks))
		sharedChunks, sharedBytes := 0, int64(0)
		for _, ref := range v.chunks {
			cur[ref.ID] = struct{}{}
			if _, shared := prev[ref.ID]; shared {
				sharedChunks++
				sharedBytes += ref.Size
			}
		}
		resp.Versions = append(resp.Versions, proto.VersionLineage{
			Version:      v.id,
			Name:         v.fileName,
			FileSize:     v.fileSize,
			NewBytes:     v.newBytes,
			Writer:       v.writer,
			CommittedAt:  v.committedAt,
			Chunks:       len(v.chunks),
			SharedChunks: sharedChunks,
			SharedBytes:  sharedBytes,
		})
		prev = cur
	}
	return resp, nil
}

// chunkSpan identifies one chunk occurrence by content AND position. Two
// versions agree on a byte range exactly when the same chunk hash covers
// the same offset span in both — the invariant the diff below rests on.
type chunkSpan struct {
	id     core.ChunkID
	offset int64
	size   int64
}

// spanSet indexes a version's chunk occurrences by (id, offset, size).
func spanSet(v *version) map[chunkSpan]struct{} {
	spans := make(map[chunkSpan]struct{}, len(v.chunks))
	var off int64
	for _, ref := range v.chunks {
		spans[chunkSpan{id: ref.ID, offset: off, size: ref.Size}] = struct{}{}
		off += ref.Size
	}
	return spans
}

// diff computes the changed byte ranges between versions from and to of
// one dataset (0 = latest), in to's byte space. A range is emitted for
// every to-chunk that does not cover the identical offset span with the
// identical hash in from; bytes outside the ranges are guaranteed equal
// (SHA-1 content addressing), so the ranges are a safe — and, under
// fixed chunking, chunk-exact — superset of the bytewise diff. Ranges
// come out sorted, non-overlapping, and coalesced.
func (c *catalog) diff(name string, from, to core.VersionID) (proto.DiffResp, error) {
	sh := c.dsShardOf(namespace.DatasetOf(name))
	sh.rlock()
	defer sh.runlock()
	_, vf, err := c.lookupLocked(sh, name, from)
	if err != nil {
		return proto.DiffResp{}, err
	}
	_, vt, err := c.lookupLocked(sh, name, to)
	if err != nil {
		return proto.DiffResp{}, err
	}
	resp := proto.DiffResp{
		From: vf.id, To: vt.id,
		FromSize: vf.fileSize, ToSize: vt.fileSize,
	}
	base := spanSet(vf)
	var off int64
	for _, ref := range vt.chunks {
		if _, same := base[chunkSpan{id: ref.ID, offset: off, size: ref.Size}]; !same {
			resp.Ranges = appendRange(resp.Ranges, off, ref.Size)
			resp.DiffBytes += ref.Size
		}
		off += ref.Size
	}
	return resp, nil
}

// appendRange extends the last range when the new span is adjacent,
// otherwise appends. Callers feed spans in ascending offset order.
func appendRange(rs []proto.ByteRange, off, n int64) []proto.ByteRange {
	if k := len(rs); k > 0 && rs[k-1].Offset+rs[k-1].Length == off {
		rs[k-1].Length += n
		return rs
	}
	return append(rs, proto.ByteRange{Offset: off, Length: n})
}

// removeVersionsLocked is the single exit path for committed versions:
// client deletes, replace-policy trims, purges, and retention prunes all
// funnel through it. It journals one "delete" entry per victim BEFORE
// any effect becomes visible (mirroring commit's ordering — and closing
// the old gap where trim/purge removals were never journaled, so replay
// resurrected pruned versions), dereferences the victims' chunks, and
// removes the dataset entirely when no version survives.
//
// Callers hold sh's write lock and pass victims ∪ kept == ds.versions.
// A journal failure aborts with nothing applied; entries already
// journaled for earlier victims replay as deletes after a crash, which
// is idempotent for every caller (a delete the client retried, or a
// prune the worker would re-select).
func (c *catalog) removeVersionsLocked(sh *datasetShard, ds *dataset, victims, kept []*version) ([]core.ChunkID, error) {
	if len(victims) == 0 {
		return nil, nil
	}
	if c.journalHook != nil {
		for _, v := range victims {
			if err := c.journalHook(journalEntry{Op: "delete", Name: ds.name, Version: v.id}); err != nil {
				return nil, fmt.Errorf("remove %s v%d: journal: %w", ds.name, v.id, err)
			}
		}
	}
	orphans := c.dropVersions(victims)
	ds.versions = kept
	if len(ds.versions) == 0 {
		delete(sh.byName, ds.name)
		c.releaseDatasetID(ds.id)
	}
	return orphans, nil
}

// deleteVersion removes one version (or, with ver == 0, the whole
// dataset). It returns the chunk IDs whose reference count dropped to zero
// (now orphaned; benefactor GC reaps them).
func (c *catalog) deleteVersion(name string, ver core.VersionID) ([]core.ChunkID, error) {
	key := namespace.DatasetOf(name)
	sh := c.dsShardOf(key)
	sh.lock()
	defer sh.unlock()
	ds, ok := sh.byName[key]
	if !ok {
		return nil, fmt.Errorf("dataset %q: %w", name, core.ErrNotFound)
	}
	var victims []*version
	var kept []*version
	switch {
	case ver != 0:
		for _, v := range ds.versions {
			if v.id == ver {
				victims = append(victims, v)
			} else {
				kept = append(kept, v)
			}
		}
		if len(victims) == 0 {
			return nil, fmt.Errorf("dataset %q version %d: %w", name, ver, core.ErrNotFound)
		}
	case name != key:
		for _, v := range ds.versions {
			if v.fileName == name {
				victims = append(victims, v)
			} else {
				kept = append(kept, v)
			}
		}
		if len(victims) == 0 {
			return nil, fmt.Errorf("file %q: %w", name, core.ErrNotFound)
		}
	default:
		victims = ds.versions
		kept = nil
	}
	return c.removeVersionsLocked(sh, ds, victims, kept)
}

// dropVersions decrements refcounts for the victims' chunks and returns
// newly orphaned chunk IDs. Callers hold the owning dataset's shard lock.
func (c *catalog) dropVersions(victims []*version) []core.ChunkID {
	var orphans []core.ChunkID
	for _, v := range victims {
		c.logicalBytes.Add(-v.fileSize)
		seen := make(map[core.ChunkID]struct{}, len(v.chunks))
		unique := make([]core.ChunkID, 0, len(v.chunks))
		for _, ref := range v.chunks {
			if _, dup := seen[ref.ID]; dup {
				continue
			}
			seen[ref.ID] = struct{}{}
			unique = append(unique, ref.ID)
		}
		orphans = append(orphans, c.dropChunkRefs(unique)...)
	}
	return orphans
}

// referenced reports whether a chunk is referenced by any committed
// version (the GC keep-set membership test).
func (c *catalog) referenced(id core.ChunkID) bool {
	sh := c.ck[c.ckIndexOf(id)]
	sh.rlock()
	defer sh.runlock()
	e, ok := sh.chunks[id]
	return ok && e.refs > 0
}

// addLocation records a new replica of a chunk (background replication
// commit of a shadow-map entry).
func (c *catalog) addLocation(id core.ChunkID, node core.NodeID) {
	sh := c.ck[c.ckIndexOf(id)]
	sh.lock()
	defer sh.unlock()
	if e, ok := sh.chunks[id]; ok {
		e.locations[node] = struct{}{}
	}
}

// adoptLocation re-adds a replica location from a re-registration
// inventory, but only for chunks the catalog still knows — committed
// (refs) or mid-commit (pending). It reports whether the chunk was
// adopted; a false return means the caller may declare the chunk garbage
// to the node. Pending chunks count as known so an in-flight commit's
// uploads can never be condemned by a concurrent flap.
func (c *catalog) adoptLocation(id core.ChunkID, node core.NodeID) bool {
	sh := c.ck[c.ckIndexOf(id)]
	sh.lock()
	defer sh.unlock()
	e, ok := sh.chunks[id]
	if !ok || (e.refs <= 0 && e.pending <= 0) {
		return false
	}
	e.locations[node] = struct{}{}
	return true
}

// dropLocation removes one replica location of one chunk (scrub-reported
// corruption) and reports whether it existed.
func (c *catalog) dropLocation(id core.ChunkID, node core.NodeID) bool {
	sh := c.ck[c.ckIndexOf(id)]
	sh.lock()
	defer sh.unlock()
	e, ok := sh.chunks[id]
	if ok {
		_, ok = e.locations[node]
		delete(e.locations, node)
	}
	return ok
}

// dropLocationEverywhere removes a node from all chunk location sets
// (permanent decommission; not used for mere offline transitions, where
// the node may come back with its chunks intact). Returns the number of
// locations dropped (decommission telemetry).
func (c *catalog) dropLocationEverywhere(node core.NodeID) int {
	dropped := 0
	for _, sh := range c.ck {
		sh.lock()
		for _, e := range sh.chunks {
			if _, ok := e.locations[node]; ok {
				delete(e.locations, node)
				dropped++
			}
		}
		sh.unlock()
	}
	return dropped
}

// list summarizes datasets, optionally restricted to a folder.
func (c *catalog) list(folder string, online func(core.NodeID) bool) []core.DatasetInfo {
	var out []core.DatasetInfo
	for _, sh := range c.ds {
		sh.rlock()
		for _, ds := range sh.byName {
			if folder != "" && !strings.EqualFold(ds.folder, folder) {
				continue
			}
			out = append(out, c.datasetInfo(ds, online))
		}
		sh.runlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// stat summarizes one dataset.
func (c *catalog) stat(name string, online func(core.NodeID) bool) (core.DatasetInfo, error) {
	key := namespace.DatasetOf(name)
	sh := c.dsShardOf(key)
	sh.rlock()
	defer sh.runlock()
	ds, ok := sh.byName[key]
	if !ok {
		return core.DatasetInfo{}, fmt.Errorf("dataset %q: %w", name, core.ErrNotFound)
	}
	return c.datasetInfo(ds, online), nil
}

// datasetInfo summarizes one dataset. Callers hold its shard lock.
func (c *catalog) datasetInfo(ds *dataset, online func(core.NodeID) bool) core.DatasetInfo {
	info := core.DatasetInfo{ID: ds.id, Name: ds.name, Folder: ds.folder}
	for _, v := range ds.versions {
		info.Versions = append(info.Versions, core.VersionInfo{
			Dataset:     ds.id,
			Version:     v.id,
			Name:        v.fileName,
			FileSize:    v.fileSize,
			StoredBytes: v.newBytes,
			Replication: c.liveReplication(v, online),
			CreatedAt:   v.committedAt,
		})
	}
	return info
}

// liveReplication computes the minimum number of live replicas across a
// version's chunks. Callers hold the version's dataset shard lock.
func (c *catalog) liveReplication(v *version, online func(core.NodeID) bool) int {
	min := -1
	c.forEachRefShard(v.chunks, true, func(sh *chunkShard, idx []int) {
		for _, i := range idx {
			e, ok := sh.chunks[v.chunks[i].ID]
			if !ok {
				min = 0
				continue
			}
			live := 0
			for node := range e.locations {
				if online == nil || online(node) {
					live++
				}
			}
			if min < 0 || live < min {
				min = live
			}
		}
	})
	if min < 0 {
		return 0
	}
	return min
}

// replStatus reports the live replication of a dataset's latest version and
// its target.
func (c *catalog) replStatus(name string, online func(core.NodeID) bool) (proto.ReplStatusResp, error) {
	sh := c.dsShardOf(namespace.DatasetOf(name))
	sh.rlock()
	defer sh.runlock()
	ds, v, err := c.lookupLocked(sh, name, 0)
	if err != nil {
		return proto.ReplStatusResp{}, err
	}
	return proto.ReplStatusResp{
		Version: v.id,
		Level:   c.liveReplication(v, online),
		Target:  ds.replication,
	}, nil
}

// counters snapshots catalog-level statistics.
func (c *catalog) counters() (datasets, versions, uniqueChunks int, logical, stored int64) {
	for _, sh := range c.ds {
		sh.rlock()
		datasets += len(sh.byName)
		for _, ds := range sh.byName {
			versions += len(ds.versions)
		}
		sh.runlock()
	}
	for _, sh := range c.ck {
		sh.rlock()
		uniqueChunks += len(sh.chunks)
		sh.runlock()
	}
	return datasets, versions, uniqueChunks, c.logicalBytes.Load(), c.storedBytes.Load()
}

// stripeSnapshot copies the per-stripe acquisition counters.
func (c *catalog) stripeSnapshot() (ds, ck []proto.StripeStats) {
	ds = make([]proto.StripeStats, len(c.ds))
	for i, sh := range c.ds {
		ds[i] = sh.snapshot()
	}
	ck = make([]proto.StripeStats, len(c.ck))
	for i, sh := range c.ck {
		ck[i] = sh.snapshot()
	}
	return ds, ck
}
