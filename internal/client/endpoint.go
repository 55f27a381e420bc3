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
type ManagerEndpoint interface {
	// Call sends one manager op where proto.RouteOf routes it: req and
	// resp are pointers to the op's payloads (resp nil when the reply is
	// not wanted). Dataset-scoped ops carry the dataset-owning file name
	// even when the request is keyed by something else (a WriteID): write
	// sessions are member-local in a federation, so the name is what
	// routes the call to the member that allocated the session.
	Call(op, name string, req, resp interface{}) error
	// GetMaps batch-fetches committed chunk-maps (cache prefetch).
	// Best-effort: unknown names are absent from the reply.
	GetMaps(req proto.GetMapsReq) (proto.GetMapsResp, error)
	// List summarizes datasets, optionally restricted to a folder.
	List(folder string) ([]core.DatasetInfo, error)
	// PolicyDryRun reports which versions the next retention sweep would
	// prune (folder "" = every enforced folder), without mutating
	// anything.
	PolicyDryRun(req proto.PolicyDryRunReq) (proto.PolicyDryRunResp, error)
	// ManagerStats snapshots service-wide counters.
	ManagerStats() (proto.ManagerStats, error)
	// Benefactors lists registered benefactors.
	Benefactors() ([]core.BenefactorInfo, error)
	// Close releases endpoint resources. The owning Client calls it once.
	Close() error
}
