package client

import (
	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// ManagerEndpoint is the client's seam to the metadata service. The one
// implementation that ships is internal/federation's Router — over a lone
// manager or N partitioned ones, so everything above this interface (the
// writer pipeline, the reader, the facade) never learns which — and the
// interface stays so the package's tests can put an in-memory fake behind
// a Client.
//
// Dataset-scoped calls carry the dataset-owning file name even when the
// wire request is keyed by something else (a WriteID): write sessions are
// member-local in a federation, so the name is what routes the call to
// the member that allocated the session.
type ManagerEndpoint interface {
	// Alloc opens a write session for req.Name.
	Alloc(req proto.AllocReq) (proto.AllocResp, error)
	// Extend grows the named session's space reservation.
	Extend(name string, req proto.ExtendReq) (proto.ExtendResp, error)
	// Commit atomically publishes the named session's chunk-map.
	Commit(name string, req proto.CommitReq) (proto.CommitResp, error)
	// Abort abandons the named session.
	Abort(name string, req proto.AbortReq) error
	// HasChunks answers the incremental-checkpointing dedup probe for a
	// write session on name.
	HasChunks(name string, ids []core.ChunkID) ([]bool, error)
	// GetMap fetches a committed chunk-map.
	GetMap(req proto.GetMapReq) (proto.GetMapResp, error)
	// GetMaps batch-fetches committed chunk-maps (cache prefetch).
	// Best-effort: unknown names are absent from the reply.
	GetMaps(req proto.GetMapsReq) (proto.GetMapsResp, error)
	// History reports a dataset's version lineage, oldest first.
	History(req proto.HistoryReq) (proto.HistoryResp, error)
	// Diff reports the byte ranges that changed between two committed
	// versions of a dataset.
	Diff(req proto.DiffReq) (proto.DiffResp, error)
	// StatVersion resolves a name to its committed version identity (no
	// location payload): the chunk-map cache's lightweight "is my cached
	// map still the latest?" revalidation probe.
	StatVersion(req proto.StatVersionReq) (proto.StatVersionResp, error)
	// List summarizes datasets, optionally restricted to a folder.
	List(folder string) ([]core.DatasetInfo, error)
	// Stat summarizes one dataset.
	Stat(name string) (core.DatasetInfo, error)
	// Delete removes a version or a whole dataset.
	Delete(req proto.DeleteReq) error
	// SetPolicy attaches a data-lifetime policy to a folder.
	SetPolicy(folder string, p core.Policy) error
	// GetPolicy reads a folder's policy.
	GetPolicy(folder string) (core.Policy, error)
	// PolicyDryRun reports which versions the next retention sweep would
	// prune (folder "" = every enforced folder), without mutating
	// anything.
	PolicyDryRun(req proto.PolicyDryRunReq) (proto.PolicyDryRunResp, error)
	// ReplStatus reports the replication level of a dataset's latest
	// version.
	ReplStatus(name string) (proto.ReplStatusResp, error)
	// ManagerStats snapshots service-wide counters.
	ManagerStats() (proto.ManagerStats, error)
	// Benefactors lists registered benefactors.
	Benefactors() ([]core.BenefactorInfo, error)
	// Close releases endpoint resources. The owning Client calls it once.
	Close() error
}
