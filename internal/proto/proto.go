// Package proto defines the RPC surface of stdchk: operation names and
// request/response payloads for the manager service and the benefactor
// service. Both services speak the framed protocol of package wire; this
// package is pure data so every component can import it without cycles.
//
// Messages that carry chunk IDs — a single ID, an ID list or a chunk map —
// and the two responses that answer an ID list entry for entry (HasResp,
// BatchGetResp) have a fixed binary meta layout (codec.go: an
// AppendMeta/ParseMeta method pair that package wire selects by type);
// every other message is JSON. A message has exactly one of the two forms.
package proto

import (
	"time"

	"stdchk/internal/core"
)

// Benefactor service operations (served by internal/benefactor).
const (
	// BPut stores one chunk: meta PutReq, body = chunk bytes.
	BPut = "b.put"
	// BGet fetches one chunk: meta GetReq, response body = chunk bytes.
	BGet = "b.get"
	// BGetBatch fetches many chunks in one round trip: meta BatchGetReq,
	// response meta BatchGetResp with per-chunk sizes, response body = the
	// present chunks' bytes concatenated in request order. Absent or
	// unreadable chunks, and slots past the request's ID or body bound, are
	// reported per-slot (size -1), never as a request-level error, so one
	// dead chunk cannot fail a whole batch.
	BGetBatch = "b.getbatch"
	// BHas asks which of a set of chunks the benefactor holds.
	BHas = "b.has"
	// BDel deletes chunks (GC executor).
	BDel = "b.del"
	// BReplicate instructs the benefactor to push one of its chunks to
	// another benefactor (manager-driven background replication).
	BReplicate = "b.replicate"
	// BMapPut stores a chunk-map replica for manager-failure recovery.
	BMapPut = "b.mapput"
	// BMapList returns the stored chunk-map replicas.
	BMapList = "b.maplist"
	// BPing is a liveness probe.
	BPing = "b.ping"
	// BStats returns storage statistics.
	BStats = "b.stats"
)

// Manager service operations (served by internal/manager).
const (
	// MRegister announces a benefactor to the manager.
	MRegister = "m.register"
	// MHeartbeat refreshes a benefactor's soft state.
	MHeartbeat = "m.heartbeat"
	// MAlloc opens a write session: reserves space and allocates a stripe.
	MAlloc = "m.alloc"
	// MExtend grows a session's space reservation.
	MExtend = "m.extend"
	// MCommit atomically commits a session's chunk-map (session semantics).
	MCommit = "m.commit"
	// MAbort abandons a session, releasing reservations.
	MAbort = "m.abort"
	// MHasChunks asks which chunk hashes the system already stores
	// (incremental checkpointing dedup query).
	MHasChunks = "m.haschunks"
	// MGetMap fetches the chunk-map of a committed version, or only the
	// version when it is the one the caller holds (GetMapReq.Have).
	MGetMap = "m.getmap"
	// MGetMaps batch-fetches the latest chunk-maps of several datasets in
	// one round trip (cross-member map prefetch: a restart storm warms a
	// job's whole checkpoint set with one call per federation member).
	MGetMaps = "m.getmaps"
	// MHistory returns a dataset's version lineage: one entry per
	// committed version with identity, writer, sizes, and chunk sharing
	// against the predecessor (the catalog query plane's list operation).
	MHistory = "m.history"
	// MDiff computes the changed byte ranges between two committed
	// versions of a dataset from their chunk-maps (the catalog query
	// plane's compare operation; incremental restore's planning input).
	MDiff = "m.diff"
	// MStatVersion resolves a name, or the newest version committed as of
	// an instant, to its committed version identity — no location
	// payload. It is how an as-of open learns which version to serve.
	MStatVersion = "m.statversion"
	// MList lists datasets, optionally restricted to a folder.
	MList = "m.list"
	// MStat describes one dataset.
	MStat = "m.stat"
	// MDelete removes a version or a whole dataset.
	MDelete = "m.delete"
	// MPolicySet sets a folder's data-lifetime policy. It goes to every
	// member: a folder's datasets hash across the whole federation and
	// each member prunes only its own, so the policy must exist
	// everywhere. The fan-out is not atomic: on error some members may
	// hold the new policy and some the old, and the caller retries until
	// it succeeds.
	MPolicySet = "m.policyset"
	// MPolicyGet reads a folder's policy.
	MPolicyGet = "m.policyget"
	// MPolicyDryRun reports which versions the next retention sweep would
	// prune, per enforced folder, without mutating anything (the audit
	// companion to the background pruner).
	MPolicyDryRun = "m.policydryrun"
	// MGCReport reconciles a benefactor's chunk inventory; the response
	// lists chunks the benefactor may delete.
	MGCReport = "m.gcreport"
	// MBenefactors lists registered benefactors.
	MBenefactors = "m.benefactors"
	// MReplStatus reports the replication level of a dataset's latest
	// version (pessimistic writes poll it).
	MReplStatus = "m.replstatus"
	// MStats returns manager-wide statistics.
	MStats = "m.stats"
)

// Route says which members of a federated metadata plane serve a manager
// op. A lone manager is a federation of one, so every route reaches it.
type Route uint8

const (
	// RouteOwner ops go to the member owning the partition of the
	// dataset they name, carrying the caller's partition epoch when the
	// request embeds Epoch.
	RouteOwner Route = iota + 1
	// RouteEvery ops go to every member: each holds its own partition and
	// its own benefactor registry, so replies are merged.
	RouteEvery
	// RouteAny ops go to the first member that answers: every member
	// holds the same answer.
	RouteAny
)

// RouteOf returns op's route, or 0 when op is not a manager op.
func RouteOf(op string) Route {
	switch op {
	case MAlloc, MExtend, MCommit, MAbort, MHasChunks, MGetMap, MGetMaps,
		MHistory, MDiff, MStatVersion, MStat, MDelete, MReplStatus:
		return RouteOwner
	case MRegister, MHeartbeat, MList, MPolicySet, MPolicyDryRun, MGCReport,
		MBenefactors, MStats:
		return RouteEvery
	case MPolicyGet:
		return RouteAny
	}
	return 0
}

// Epoch is the federation partition epoch a dataset-scoped request
// carries: 0 when the caller is not federation-aware, and federated
// members then skip the epoch check but still enforce partition ownership
// of the name. Requests embed it, so the JSON field sits where the struct
// declares it and one setter stamps every such request.
type Epoch struct {
	PartitionEpoch uint64 `json:"partitionEpoch,omitempty"`
}

// SetPartitionEpoch stamps the request with epoch.
func (e *Epoch) SetPartitionEpoch(epoch uint64) { e.PartitionEpoch = epoch }

// PutReq accompanies a BPut body.
type PutReq struct {
	ID core.ChunkID `json:"id"`
}

// GetReq names the chunk for BGet.
type GetReq struct {
	ID core.ChunkID `json:"id"`
}

// MaxBatchIDs bounds the chunk IDs one BGetBatch request may name. The
// benefactor answers slots past it with size -1; clients never send more.
const MaxBatchIDs = 256

// BatchGetReq names the chunks for a BGetBatch, in response-body order.
type BatchGetReq struct {
	IDs []core.ChunkID `json:"ids"`
}

// BatchGetResp describes a BGetBatch body: Sizes is parallel to the
// request's IDs, with Sizes[i] the byte length of chunk i within the
// concatenated body, or -1 when the benefactor could not serve it — the
// chunk is absent, or the slot lies past MaxBatchIDs or past the point
// where the body would outgrow wire.MaxPooledBuf (the caller retries
// those chunks one at a time, against this or another replica).
type BatchGetResp struct {
	Sizes []int64 `json:"sizes"`
}

// HasReq asks about a batch of chunks (BHas / MHasChunks).
type HasReq struct {
	IDs []core.ChunkID `json:"ids"`
}

// HasResp answers HasReq; Present is parallel to IDs.
type HasResp struct {
	Present []bool `json:"present"`
}

// DelReq lists chunks to delete.
type DelReq struct {
	IDs []core.ChunkID `json:"ids"`
}

// ReplicateReq instructs a benefactor to copy a chunk to Target.
type ReplicateReq struct {
	ID     core.ChunkID `json:"id"`
	Target string       `json:"target"` // benefactor address
}

// MapPutReq stores a chunk-map replica on a benefactor keyed by file name.
type MapPutReq struct {
	Name string         `json:"name"`
	Map  *core.ChunkMap `json:"map"`
}

// NamedMap is one recovered chunk-map replica.
type NamedMap struct {
	Name string         `json:"name"`
	Map  *core.ChunkMap `json:"map"`
}

// MapListResp returns a benefactor's chunk-map replicas.
type MapListResp struct {
	Maps []NamedMap `json:"maps"`
}

// StatsResp reports a benefactor's storage statistics.
type StatsResp struct {
	Used     int64 `json:"used"`
	Capacity int64 `json:"capacity"`
	Chunks   int   `json:"chunks"`
	// ScrubbedChunks counts integrity-scrub verifications since start;
	// CorruptChunks the chunks the scrub quarantined.
	ScrubbedChunks int64 `json:"scrubbedChunks,omitempty"`
	CorruptChunks  int64 `json:"corruptChunks,omitempty"`
}

// MaxRegisterChunks bounds the chunk inventory a RegisterReq carries for
// rejoin reconciliation, and the batch of one GCReportReq: the most raw
// 20-byte IDs that fit one frame's control header, with listSlack left
// for the frame fields, the op and the message's other fields. Nodes
// holding more register with the first MaxRegisterChunks of their sorted
// inventory and leave the remainder to the GC protocol's inventory
// reports, which page through everything in batches of this size.
const MaxRegisterChunks = (maxHeaderLen - listSlack) / core.HashSize

const (
	// maxHeaderLen mirrors wire.MaxHeaderLen: this package stays pure
	// data, below wire, so it cannot import the constant.
	// TestIDListFitsOneFrame fails if the two drift apart.
	maxHeaderLen = 1 << 20
	// listSlack is the header room an ID-list message leaves for
	// everything but the list: far more than a node ID and an address
	// need.
	listSlack = 4 << 10
)

// RegisterReq announces a benefactor.
type RegisterReq struct {
	ID       core.NodeID `json:"id"`
	Addr     string      `json:"addr"`
	Capacity int64       `json:"capacity"`
	Free     int64       `json:"free"`
	// Chunks is the node's chunk inventory (at most MaxRegisterChunks),
	// carried so a re-registration reconciles in one RPC: the manager
	// re-adds the locations it still references and answers with the
	// garbage set, instead of re-replicating everything a flapped node
	// already holds.
	Chunks []core.ChunkID `json:"chunksHeld,omitempty"`
}

// RegisterResp configures the benefactor's soft-state refresh.
type RegisterResp struct {
	HeartbeatInterval time.Duration `json:"heartbeatInterval"`
	// Recovering signals that the manager restarted with empty metadata
	// and wants the benefactor's chunk-map replicas (paper §IV.A manager
	// failure handling).
	Recovering bool `json:"recovering,omitempty"`
	// Reconciled counts the RegisterReq.Chunks the manager still
	// references and re-adopted as live replica locations.
	Reconciled int `json:"reconciled,omitempty"`
	// Garbage lists the RegisterReq.Chunks the manager no longer
	// references; the node may delete them immediately. Empty while the
	// manager is recovering (its catalog is incomplete).
	Garbage []core.ChunkID `json:"garbage,omitempty"`
}

// HeartbeatReq refreshes soft state.
type HeartbeatReq struct {
	ID     core.NodeID `json:"id"`
	Free   int64       `json:"free"`
	Used   int64       `json:"used"`
	Chunks int         `json:"chunks"`
	// Corrupt lists chunks the node's integrity scrub quarantined since
	// the last acknowledged heartbeat. The manager drops these replica
	// locations and schedules critical-priority repair.
	Corrupt []core.ChunkID `json:"corrupt,omitempty"`
}

// HeartbeatResp may carry manager commands back to the benefactor.
type HeartbeatResp struct {
	OK bool `json:"ok"`
	// Recovering mirrors RegisterResp.Recovering for already-registered
	// benefactors.
	Recovering bool `json:"recovering,omitempty"`
}

// AllocReq opens a write session.
type AllocReq struct {
	// Name is the full file name (A.Ni.Tj convention when applicable).
	Name string `json:"name"`
	Epoch
	// StripeWidth is the number of benefactors to stripe across.
	StripeWidth int `json:"stripeWidth"`
	// ChunkSize is the striping chunk size — in the variable (CbCH)
	// regime, the maximum span bound.
	ChunkSize int64 `json:"chunkSize"`
	// Variable marks a content-defined (variable-size) chunking session:
	// committed chunk sizes are free within (0, ChunkSize] and the
	// resulting chunk-map is flagged Variable.
	Variable bool `json:"variable,omitempty"`
	// ReserveBytes is the initial eager space reservation.
	ReserveBytes int64 `json:"reserveBytes"`
	// Replication is the user-defined replication target.
	Replication int `json:"replication"`
	// Writer optionally identifies the writing client (user@host, job id,
	// …). It is recorded on the committed version and surfaced by
	// MHistory; empty when the client declares no identity.
	Writer string `json:"writer,omitempty"`
}

// AllocResp returns the session handle and the stripe.
type AllocResp struct {
	WriteID uint64   `json:"writeId"`
	Stripe  []Stripe `json:"stripe"`
}

// Stripe names one benefactor of a write stripe.
type Stripe struct {
	ID   core.NodeID `json:"id"`
	Addr string      `json:"addr"`
}

// ExtendReq grows a session's reservation.
type ExtendReq struct {
	WriteID uint64 `json:"writeId"`
	Bytes   int64  `json:"bytes"`
}

// ExtendResp acknowledges the reservation.
type ExtendResp struct {
	Reserved int64 `json:"reserved"`
}

// CommitChunk is one chunk of a commit: location-less chunks are resolved
// from the manager's content index (copy-on-write sharing with earlier
// versions).
type CommitChunk struct {
	ID        core.ChunkID  `json:"id"`
	Size      int64         `json:"size"`
	Locations []core.NodeID `json:"locations,omitempty"`
}

// CommitReq atomically publishes a session's chunk-map.
type CommitReq struct {
	WriteID  uint64        `json:"writeId"`
	FileSize int64         `json:"fileSize"`
	Chunks   []CommitChunk `json:"chunks"`
}

// CommitResp reports the committed version.
type CommitResp struct {
	Dataset core.DatasetID `json:"dataset"`
	Version core.VersionID `json:"version"`
	// NewBytes is the number of bytes this version actually added to the
	// store (smaller than FileSize when chunks were shared).
	NewBytes int64 `json:"newBytes"`
}

// AbortReq abandons a session.
type AbortReq struct {
	WriteID uint64 `json:"writeId"`
}

// GetMapReq fetches a committed chunk-map. Version 0 means latest.
type GetMapReq struct {
	Name    string         `json:"name"`
	Version core.VersionID `json:"version,omitempty"`
	// Have is the version of this name's map the caller already holds
	// (0 = none). When the name resolves to it, the reply carries no map.
	Have core.VersionID `json:"have,omitempty"`
	Epoch
}

// GetMapResp carries the resolved version and its chunk-map. Map is nil
// when Version is the request's Have: the caller's copy is current.
type GetMapResp struct {
	Name    string         `json:"name"`
	Version core.VersionID `json:"version"`
	Map     *core.ChunkMap `json:"map"`
}

// GetMapsReq batch-fetches the latest chunk-maps of several datasets
// (MGetMaps). The request is best-effort: names not found, or not owned
// by the serving federation member, are silently omitted from the
// response — the caller falls back to per-name MGetMap for the rest.
type GetMapsReq struct {
	Names []string `json:"names"`
	// Ownership of each name is checked individually; non-owned names
	// are skipped, not errors, so a router can fan one batch per member
	// without partition-exact pre-splitting.
	Epoch
}

// GetMapsResp returns the resolved maps, at most one per requested name.
type GetMapsResp struct {
	Maps []NamedMap `json:"maps"`
}

// HistoryReq asks for a dataset's version lineage (MHistory). Name may
// be a dataset key or any full file name of the dataset.
type HistoryReq struct {
	Name string `json:"name"`
	Epoch
}

// VersionLineage is one committed version in a dataset's history,
// ordered oldest-first in HistoryResp. SharedChunks/SharedBytes measure
// copy-on-write sharing against the immediate predecessor version (both
// zero for the first version).
type VersionLineage struct {
	// Version is the catalog version id and Name the full file name
	// committed under it.
	Version core.VersionID `json:"version"`
	Name    string         `json:"name"`
	// FileSize is the logical byte size; NewBytes the bytes this version
	// actually added to the store (FileSize minus deduped bytes).
	FileSize int64 `json:"fileSize"`
	NewBytes int64 `json:"newBytes"`
	// Writer is the identity declared at alloc time ("" when none).
	Writer string `json:"writer,omitempty"`
	// CommittedAt is the manager-side commit timestamp.
	CommittedAt time.Time `json:"committedAt"`
	// Chunks is the version's chunk count; SharedChunks of those also
	// appear in the predecessor version, covering SharedBytes bytes.
	Chunks       int   `json:"chunks"`
	SharedChunks int   `json:"sharedChunks"`
	SharedBytes  int64 `json:"sharedBytes"`
}

// HistoryResp carries the lineage, oldest version first.
type HistoryResp struct {
	// Dataset is the catalog dataset id and Folder its policy folder.
	Dataset  core.DatasetID   `json:"dataset"`
	Folder   string           `json:"folder"`
	Versions []VersionLineage `json:"versions"`
}

// DiffReq asks for the changed byte ranges between versions From and To
// of one dataset (MDiff). Either may be 0 meaning the latest version;
// From and To may name the versions in either order.
type DiffReq struct {
	Name string         `json:"name"`
	From core.VersionID `json:"from,omitempty"`
	To   core.VersionID `json:"to,omitempty"`
	Epoch
}

// ByteRange is one half-open changed span [Offset, Offset+Length) in
// the To version's byte space.
type ByteRange struct {
	Offset int64 `json:"offset"`
	Length int64 `json:"length"`
}

// DiffResp reports the diff. Ranges are sorted, non-overlapping, and
// coalesced; a byte outside every range is guaranteed identical in both
// versions (same chunk hash covering the same offset). DiffBytes is the
// sum of range lengths — the exact byte budget of an incremental
// restore from From to To.
type DiffResp struct {
	// From and To are the resolved version ids (after latest-resolution).
	From core.VersionID `json:"from"`
	To   core.VersionID `json:"to"`
	// FromSize and ToSize are the logical sizes of the two versions.
	FromSize int64 `json:"fromSize"`
	ToSize   int64 `json:"toSize"`
	// Ranges lists the changed spans in To's byte space.
	Ranges []ByteRange `json:"ranges"`
	// DiffBytes is the total changed-byte count (sum over Ranges).
	DiffBytes int64 `json:"diffBytes"`
}

// StatVersionReq asks which committed version a name currently resolves
// to (MStatVersion). Resolution follows GetMapReq semantics: a dataset
// key resolves to the latest version, a full A.Ni.Tj name to that
// timestep's version.
type StatVersionReq struct {
	Name string `json:"name"`
	// AsOf, when set, resolves the newest version committed at or before
	// this instant instead — the one as-of resolver, under the dataset
	// stripe. An instant older than every commit is core.ErrNotFound.
	AsOf time.Time `json:"asOf,omitempty"`
	Epoch
}

// StatVersionResp carries the resolved version identity — deliberately no
// chunk or location payload, so the reply stays a few bytes regardless of
// file size.
type StatVersionResp struct {
	// Name is the resolved full file name (as GetMapResp.Name).
	Name    string         `json:"name"`
	Dataset core.DatasetID `json:"dataset"`
	Version core.VersionID `json:"version"`
}

// ListReq lists datasets under a folder ("" = all).
type ListReq struct {
	Folder string `json:"folder,omitempty"`
}

// ListResp returns dataset summaries.
type ListResp struct {
	Datasets []core.DatasetInfo `json:"datasets"`
}

// StatReq describes one dataset by name (dataset key or full file name).
type StatReq struct {
	Name string `json:"name"`
	Epoch
}

// StatResp carries the dataset summary.
type StatResp struct {
	Dataset core.DatasetInfo `json:"dataset"`
}

// DeleteReq removes one version (Version != 0) or the whole dataset.
type DeleteReq struct {
	Name    string         `json:"name"`
	Version core.VersionID `json:"version,omitempty"`
	Epoch
}

// PolicySetReq attaches a policy to a folder.
type PolicySetReq struct {
	Folder string      `json:"folder"`
	Policy core.Policy `json:"policy"`
}

// PolicyGetReq reads a folder policy.
type PolicyGetReq struct {
	Folder string `json:"folder"`
}

// PolicyGetResp returns the folder policy.
type PolicyGetResp struct {
	Policy core.Policy `json:"policy"`
}

// PolicyDryRunReq asks what the next retention sweep would prune
// (MPolicyDryRun). Folder "" audits every enforced folder.
type PolicyDryRunReq struct {
	Folder string `json:"folder,omitempty"`
}

// PruneCandidate is one version a retention sweep would remove.
type PruneCandidate struct {
	Dataset     core.DatasetID `json:"dataset"`
	Name        string         `json:"name"` // full file name of the version
	Version     core.VersionID `json:"version"`
	FileSize    int64          `json:"fileSize"`
	CommittedAt time.Time      `json:"committedAt"`
}

// FolderDryRun reports one enforced folder's audit: the policy in force
// and the versions the next sweep would prune under it. A folder with an
// enforced policy but nothing to prune appears with empty Victims, so
// the audit also confirms what is safe.
type FolderDryRun struct {
	Folder  string           `json:"folder"`
	Policy  core.Policy      `json:"policy"`
	Victims []PruneCandidate `json:"victims,omitempty"`
}

// PolicyDryRunResp lists the audited folders, sorted by folder name.
type PolicyDryRunResp struct {
	Folders []FolderDryRun `json:"folders"`
}

// GCReportReq carries a benefactor's inventory of chunks old enough to be
// GC candidates.
type GCReportReq struct {
	ID  core.NodeID    `json:"id"`
	IDs []core.ChunkID `json:"ids"`
}

// GCReportResp lists the chunks the benefactor may delete.
type GCReportResp struct {
	Deletable []core.ChunkID `json:"deletable"`
}

// BenefactorsResp lists registered benefactors.
type BenefactorsResp struct {
	Benefactors []core.BenefactorInfo `json:"benefactors"`
}

// ReplStatusReq asks for the replication level of a dataset's latest
// version.
type ReplStatusReq struct {
	Name string `json:"name"`
	Epoch
}

// ReplStatusResp reports the level.
type ReplStatusResp struct {
	Version core.VersionID `json:"version"`
	Level   int            `json:"level"`
	Target  int            `json:"target"`
}

// ManagerStats aggregates manager-side counters (MStats).
type ManagerStats struct {
	Benefactors       int `json:"benefactors"`
	OnlineBenefactors int `json:"onlineBenefactors"`
	// SuspectBenefactors and DeadBenefactors split the not-online nodes by
	// lifecycle state: suspects missed heartbeats past the node TTL, dead
	// nodes stayed silent past the dead timeout and were decommissioned.
	SuspectBenefactors int   `json:"suspectBenefactors,omitempty"`
	DeadBenefactors    int   `json:"deadBenefactors,omitempty"`
	Datasets           int   `json:"datasets"`
	Versions           int   `json:"versions"`
	UniqueChunks       int   `json:"uniqueChunks"`
	LogicalBytes       int64 `json:"logicalBytes"`
	StoredBytes        int64 `json:"storedBytes"`
	ActiveSessions     int   `json:"activeSessions"`
	Transactions       int64 `json:"transactions"`
	// Extends counts MExtend RPCs: the writer extends its reservation by
	// as many quanta as a Write requires in one call, so this stays at
	// one per reservation jump regardless of how many quanta it spans.
	Extends int64 `json:"extends"`
	// DedupBatches counts MHasChunks RPCs and DedupChunks the chunk IDs
	// they carried; their ratio is the writer's dedup-probe batching
	// factor (one RPC per in-flight window of emitted chunks). DedupHits
	// counts the probes answered "already stored" — the manager-side
	// ground truth for chunks that incremental checkpointing kept off the
	// wire.
	DedupBatches int64 `json:"dedupBatches"`
	DedupChunks  int64 `json:"dedupChunks"`
	DedupHits    int64 `json:"dedupHits"`
	// GetMaps counts MGetMap RPCs and StatVersions the MStatVersion
	// (as-of) resolutions. A warm client chunk-map cache shows up here
	// directly: explicit-version re-opens add to neither, "latest"
	// re-opens one GetMap answered without a map.
	GetMaps      int64 `json:"getMaps"`
	StatVersions int64 `json:"statVersions"`
	// Histories and Diffs count the catalog query plane's MHistory and
	// MDiff RPCs; PrefetchBatches counts MGetMaps batch map fetches (the
	// cross-member prefetch that warms a restart storm's map caches).
	Histories       int64 `json:"histories,omitempty"`
	Diffs           int64 `json:"diffs,omitempty"`
	PrefetchBatches int64 `json:"prefetchBatches,omitempty"`
	// MapCache is always zero: the manager memoizes no maps and builds
	// each one when it is read. The field stays only because the
	// benchmark module's manager.mapcache_hit_ratio reads it.
	MapCache        MapCacheStats `json:"mapCache"`
	ReplicasCopied  int64         `json:"replicasCopied"`
	ChunksCollected int64         `json:"chunksCollected"`
	VersionsPruned  int64         `json:"versionsPruned"`
	// Repair reports the priority repair scheduler (liveness-deficit
	// bands, byte budget) and the scrub-driven corruption healing loop.
	Repair RepairStats `json:"repair"`
	// Journal* report the metadata journal's durability pipeline.
	// JournalBatches counts flush batches reaching the file and
	// JournalBatchLen the entries they carried — their ratio is the
	// group-commit amortization (entries per flush/fsync). JournalFsyncs
	// counts fsync syscalls; JournalErrors counts write/flush/fsync
	// failures (the first also sticks: later commits fail fast and the
	// manager's Close returns it).
	JournalBatches  int64 `json:"journalBatches,omitempty"`
	JournalBatchLen int64 `json:"journalBatchLen,omitempty"`
	JournalFsyncs   int64 `json:"journalFsyncs,omitempty"`
	JournalErrors   int64 `json:"journalErrors,omitempty"`
	// JournalReplayed counts journal entries replayed at startup (past any
	// snapshot's watermark); Snapshots counts catalog snapshots taken since
	// start and SnapshotSeq the newest snapshot's ticket watermark.
	JournalReplayed int64 `json:"journalReplayed,omitempty"`
	Snapshots       int64 `json:"snapshots,omitempty"`
	SnapshotSeq     int64 `json:"snapshotSeq,omitempty"`
	// CatalogStripes, ChunkStripes and SessionStripes report per-stripe
	// lock-acquisition counters for the manager's striped metadata plane
	// (dataset catalog, content-addressed chunk index, session table).
	// StripeOps and StripeContention aggregate them plus the registry's
	// node-table lock: their ratio is the fraction of metadata lock
	// acquisitions that found the lock held — the direct measure of §V.E
	// metadata-plane serialization.
	CatalogStripes []StripeStats `json:"catalogStripes,omitempty"`
	ChunkStripes   []StripeStats `json:"chunkStripes,omitempty"`
	SessionStripes []StripeStats `json:"sessionStripes,omitempty"`
	// Registry reports the benefactor registry's lock-acquisition and
	// per-op counters: like the stripes above, its Ops/Contended ratio
	// measures how often registry traffic (alloc round-robin, extends,
	// releases, heartbeats) found the node table held.
	Registry         RegistryStats `json:"registry"`
	StripeOps        int64         `json:"stripeOps"`
	StripeContention int64         `json:"stripeContention"`
	// Federation identifies this manager's place in a federated
	// deployment; nil on a standalone manager.
	Federation *FederationInfo `json:"federation,omitempty"`
	// Admission reports the manager's load-shedding plane: pending-op
	// bounds, queue depths, and how many requests were admitted vs shed.
	Admission AdmissionStats `json:"admission"`
	// AllocLatency and CommitLatency are server-side service-time
	// histograms for the two metadata ops that dominate a checkpoint's
	// critical path (session open and commit publish).
	AllocLatency  LatencyStats `json:"allocLatency"`
	CommitLatency LatencyStats `json:"commitLatency"`
}

// AdmissionStats reports manager-side admission control: the global
// pending-op queue (alloc/extend/commit), its high-water mark, and shed
// counts. Shed is requests rejected at the global gate with a typed
// retry-after; ConnShed is frames rejected earlier still, at a
// connection's inflight budget, before the dispatcher ever saw them.
type AdmissionStats struct {
	// MaxPending is the configured global pending-op bound (0 =
	// unbounded: depth is tracked but nothing is shed).
	MaxPending int `json:"maxPending,omitempty"`
	// QueueDepth is the instantaneous count of admitted, unfinished ops.
	QueueDepth int64 `json:"queueDepth"`
	// PeakQueueDepth is the high-water mark of QueueDepth since start —
	// under a working admission gate it never exceeds MaxPending.
	PeakQueueDepth int64 `json:"peakQueueDepth"`
	// Admitted and Shed partition gated requests: every gated request
	// either entered the queue or was rejected with retry-after.
	Admitted int64 `json:"admitted"`
	Shed     int64 `json:"shed"`
	// ConnShed counts session-tagged frames shed at a connection's
	// inflight bound by the wire server's overload hook.
	ConnShed int64 `json:"connShed"`
	// RetryAfterMicros is the configured backoff hint handed to shed
	// callers, in microseconds.
	RetryAfterMicros int64 `json:"retryAfterMicros,omitempty"`
}

// LatencyStats is the wire form of a latency histogram: log2-spaced
// microsecond buckets (bucket i counts observations in [2^i, 2^(i+1))
// µs) plus count and sum for the mean. Percentiles are derived
// client-side; merging across federation members is element-wise
// addition.
type LatencyStats struct {
	Count     int64   `json:"count"`
	SumMicros int64   `json:"sumMicros"`
	Buckets   []int64 `json:"buckets,omitempty"`
}

// MapCacheStats reports the client chunk-map cache's effectiveness: Hits
// served without refetching the map, Misses that paid the full fetch, and
// Invalidations from local deletes.
type MapCacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Invalidations int64 `json:"invalidations"`
}

// StripeStats reports one metadata lock stripe's acquisition counts.
type StripeStats struct {
	// Ops counts lock acquisitions (read or write) on the stripe.
	Ops int64 `json:"ops"`
	// Contended counts acquisitions that found the stripe already held.
	Contended int64 `json:"contended"`
}

// RegistryStats reports the benefactor registry's node-table lock
// acquisition counts plus per-operation counters.
type RegistryStats struct {
	// Ops / Contended count node-table lock acquisitions, as StripeStats
	// does for the metadata stripes.
	Ops       int64 `json:"ops"`
	Contended int64 `json:"contended"`
	// Allocs counts round-robin stripe allocations, Reserves the
	// reservation growths (MExtend), Releases the reservation returns
	// (commit/abort/expiry), and Heartbeats the soft-state refreshes.
	Allocs     int64 `json:"allocs"`
	Reserves   int64 `json:"reserves"`
	Releases   int64 `json:"releases"`
	Heartbeats int64 `json:"heartbeats"`
}

// RepairStats reports the manager's priority repair plane. Pending and
// Critical are gauges sampled at the last scheduler round: the number of
// under-replicated chunks the round saw, and how many of those were down
// to a single live replica (the critical band, repaired first). The rest
// are cumulative counters since start.
type RepairStats struct {
	// Pending is the under-replicated job count at the last round (after
	// the per-band round caps); Critical the 1-live-replica subset.
	Pending  int64 `json:"pending"`
	Critical int64 `json:"critical"`
	// CopiedBytes accumulates the bytes of successfully created repair
	// replicas; Failed counts jobs whose copy failed against every live
	// source in a round (retried next round).
	CopiedBytes int64 `json:"copiedBytes"`
	Failed      int64 `json:"failed"`
	// CorruptReported counts corrupt chunk locations dropped on benefactor
	// scrub reports; Reconciled counts replica locations re-adopted from
	// re-registration inventories (flap healing without re-replication).
	CorruptReported int64 `json:"corruptReported"`
	Reconciled      int64 `json:"reconciled"`
	// Decommissions counts nodes declared dead and decommissioned.
	Decommissions int64 `json:"decommissions"`
}

// FederationInfo describes a manager's membership in a federated
// metadata plane: the static member list, this member's index, and the
// partition epoch (a fingerprint of the member list; routers and members
// must agree on it for partition routing to be trusted).
type FederationInfo struct {
	Members     []string `json:"members"`
	MemberIndex int      `json:"memberIndex"`
	Epoch       uint64   `json:"epoch"`
}
