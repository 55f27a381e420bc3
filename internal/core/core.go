// Package core defines the domain types shared by every stdchk component:
// content-addressed chunk identifiers, chunk maps, dataset versions, write
// semantics, replication targets and data-lifetime policies.
//
// The types here mirror the vocabulary of the paper (ICDCS'08): datasets are
// fragmented into fixed-size chunks striped round-robin across benefactor
// nodes; a chunk-map records the chunks of a committed version and where
// each chunk lives; versions of the same checkpoint file form a chain and
// may share chunks (copy-on-write) when incremental checkpointing detects
// inter-version similarity.
package core

import (
	"crypto/sha1"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"time"

	"stdchk/internal/hashing"
)

// DefaultChunkSize is the fixed chunk size used for striping. The paper uses
// chunks "of the order of a megabyte" and evaluates with 1 MB chunks.
const DefaultChunkSize = 1 << 20

// HashSize is the size in bytes of a content hash (SHA-1, as in
// compare-by-hash systems contemporary with the paper).
const HashSize = sha1.Size

// ChunkID is the content-based name of a chunk: the SHA-1 hash of its
// contents. Content-based naming deduplicates identical chunks across
// checkpoint versions and doubles as an integrity check against faulty or
// malicious benefactors (paper §IV.C).
type ChunkID [HashSize]byte

// HashChunk computes the content-based name for a chunk payload: its
// SHA-1. Every hash pass in the tree — the writer naming a chunk, a store
// verifying a put or a disk read, the reader verifying a fetch, the
// scrubber — goes through here, and so through hashing.SHA1, which is
// crypto/sha1.Sum or a bit-identical SHA-NI kernel at about twice the
// speed, chosen by the CPU alone.
func HashChunk(data []byte) ChunkID {
	return ChunkID(hashing.SHA1(data))
}

// String returns the hexadecimal form of the chunk ID.
func (c ChunkID) String() string {
	return hex.EncodeToString(c[:])
}

// Short returns an abbreviated (8 hex digit) form for logs.
func (c ChunkID) Short() string {
	return hex.EncodeToString(c[:4])
}

// IsZero reports whether the ID is the all-zero value.
func (c ChunkID) IsZero() bool {
	return c == ChunkID{}
}

// ParseChunkID parses the hexadecimal form produced by String.
func ParseChunkID(s string) (ChunkID, error) {
	var id ChunkID
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("parse chunk id %q: %w", s, err)
	}
	if len(b) != HashSize {
		return id, fmt.Errorf("parse chunk id %q: %w", s, ErrBadChunkID)
	}
	copy(id[:], b)
	return id, nil
}

// NodeID identifies a benefactor node. It is the node's service address
// (host:port), which is what clients dial to reach its chunk service.
type NodeID string

// DatasetID identifies a logical dataset (one checkpoint file name, all of
// its versions) at the manager.
type DatasetID uint64

// VersionID identifies one committed version of a dataset. Versions are
// assigned in increasing order by the manager at commit time.
type VersionID uint64

// WriteSemantics selects the durability/throughput tradeoff for writes
// (paper §IV.A "Tunable write semantics").
type WriteSemantics int

const (
	// WriteOptimistic returns as soon as every chunk is safely stored on
	// one benefactor; background replication raises the replication level.
	WriteOptimistic WriteSemantics = iota + 1
	// WritePessimistic returns only after the dataset has reached its
	// replication target.
	WritePessimistic
)

// String implements fmt.Stringer.
func (w WriteSemantics) String() string {
	switch w {
	case WriteOptimistic:
		return "optimistic"
	case WritePessimistic:
		return "pessimistic"
	default:
		return fmt.Sprintf("WriteSemantics(%d)", int(w))
	}
}

// Sentinel errors shared across components.
var (
	// ErrNotFound indicates a dataset, version, or chunk that the manager
	// or a benefactor does not know about.
	ErrNotFound = errors.New("not found")
	// ErrNoSpace indicates the storage pool cannot satisfy a reservation.
	ErrNoSpace = errors.New("insufficient storage space")
	// ErrNoBenefactors indicates no live benefactor can host a stripe.
	ErrNoBenefactors = errors.New("no live benefactors")
	// ErrNotCommitted indicates a read of a version that was never
	// committed (session semantics expose only committed versions).
	ErrNotCommitted = errors.New("version not committed")
	// ErrAlreadyCommitted indicates a duplicate commit of a session.
	ErrAlreadyCommitted = errors.New("session already committed")
	// ErrBadChunkID indicates a malformed content hash.
	ErrBadChunkID = errors.New("malformed chunk id")
	// ErrIntegrity indicates stored chunk bytes do not match their
	// content-based name.
	ErrIntegrity = errors.New("chunk integrity violation")
	// ErrBenefactorDown indicates the addressed benefactor is offline.
	ErrBenefactorDown = errors.New("benefactor down")
	// ErrClosed indicates use of a closed component.
	ErrClosed = errors.New("closed")
	// ErrReadOnly indicates a write to a handle opened for reading.
	ErrReadOnly = errors.New("handle is read-only")
	// ErrQuorum indicates manager recovery could not assemble the
	// two-thirds benefactor concurrence required to restore a dataset.
	ErrQuorum = errors.New("insufficient recovery quorum")
	// ErrNotOwner indicates a dataset-scoped request reached a federation
	// member that does not own the dataset's partition (the client-side
	// router misrouted, or a non-federated client dialed a member
	// directly).
	ErrNotOwner = errors.New("dataset not owned by this federation member")
	// ErrEpochMismatch indicates a request carried a partition epoch that
	// does not match the member's federation configuration: the caller's
	// member list and the member's disagree, so routing cannot be trusted.
	ErrEpochMismatch = errors.New("federation partition epoch mismatch")
	// ErrRetryable marks a transient transport failure (dial refused,
	// connection reset, timeout) on a call that may be retried: the remote
	// never answered, so it may simply be restarting. Application-level
	// replies — including remote errors — are never wrapped in it. The
	// one local use: a reader whose chunk-map names a benefactor the
	// registry does not list yet (it has not re-registered since a
	// manager took over).
	ErrRetryable = errors.New("transient transport failure")
)

// retryAfterMarker is the wire form of an ErrRetryAfter rejection. The
// delay is embedded in the error string so the typed error survives the
// framed protocol's string-only error channel (see ParseRetryAfter).
const retryAfterMarker = "overloaded, retry after "

// ErrRetryAfter is an admission-control rejection: the metadata service is
// shedding load and names the earliest moment the caller should try
// again. It is deliberately distinct from ErrRetryable — a transport that
// never answered — because a retry-after IS an answer: the server is
// alive and protecting itself, so retrying sooner than Delay only deepens
// the overload. Clients and the federation router honor Delay with
// bounded backoff; errors.Is(err, ErrRetryAfter{}) matches any delay and
// errors.As extracts it.
type ErrRetryAfter struct {
	// Delay is the server's backoff hint.
	Delay time.Duration
}

// Error implements the error interface; the format round-trips through
// ParseRetryAfter.
func (e ErrRetryAfter) Error() string {
	return retryAfterMarker + e.Delay.String()
}

// Is matches any ErrRetryAfter regardless of delay, so
// errors.Is(err, core.ErrRetryAfter{}) works as a class test.
func (e ErrRetryAfter) Is(target error) bool {
	_, ok := target.(ErrRetryAfter)
	return ok
}

// IsRetryAfter reports whether err is (or wraps) an admission-control
// retry-after rejection, regardless of its delay.
func IsRetryAfter(err error) bool { return errors.Is(err, ErrRetryAfter{}) }

// ParseRetryAfter recovers a typed ErrRetryAfter from an error string that
// crossed the wire (remote errors travel as strings; see
// wire.RemoteError.Unwrap). ok is false when s carries no retry-after
// marker or the embedded delay does not parse.
func ParseRetryAfter(s string) (ErrRetryAfter, bool) {
	i := strings.LastIndex(s, retryAfterMarker)
	if i < 0 {
		return ErrRetryAfter{}, false
	}
	rest := s[i+len(retryAfterMarker):]
	if j := strings.IndexByte(rest, ' '); j >= 0 {
		rest = rest[:j]
	}
	d, err := time.ParseDuration(rest)
	if err != nil || d < 0 {
		return ErrRetryAfter{}, false
	}
	return ErrRetryAfter{Delay: d}, true
}

// ChunkRef names one chunk of a version: its position in the file, its
// content-based name, and its size (the final chunk of a file may be short).
type ChunkRef struct {
	Index int     `json:"index"`
	ID    ChunkID `json:"id"`
	Size  int64   `json:"size"`
}

// ChunkMap is the full description of one version of a dataset: the ordered
// chunk list and, for each chunk, the benefactors currently holding a
// replica. The chunk-map is the unit of atomic commit (session semantics,
// paper §IV.A): a version is visible iff its chunk-map is committed.
//
// Two chunking regimes share this type. Fixed-size striping (the paper's
// default) fragments the file into ChunkSize pieces, so every chunk but the
// last has exactly that size. Content-defined chunking (CbCH, paper §IV.C)
// anchors boundaries to the content itself; chunk sizes then vary per chunk
// and ChunkSize only bounds them from above. Variable selects the regime.
type ChunkMap struct {
	Dataset  DatasetID `json:"dataset"`
	Version  VersionID `json:"version"`
	FileSize int64     `json:"fileSize"`
	// ChunkSize is the striping size in the fixed regime, and the maximum
	// span bound in the variable (CbCH) regime.
	ChunkSize int64 `json:"chunkSize"`
	// Variable marks content-defined (variable-size) chunking: per-chunk
	// sizes are free within (0, ChunkSize].
	Variable  bool       `json:"variable,omitempty"`
	Chunks    []ChunkRef `json:"chunks"`
	Locations [][]NodeID `json:"locations"` // parallel to Chunks
	CreatedAt time.Time  `json:"createdAt"`
}

// Validate checks structural invariants of the chunk map. The fixed regime
// keeps the strict equal-size invariant (non-final chunks are exactly
// ChunkSize); the variable regime checks each chunk independently against
// the ChunkSize upper bound.
func (m *ChunkMap) Validate() error {
	if len(m.Chunks) != len(m.Locations) {
		return fmt.Errorf("chunkmap: %d chunks but %d location lists", len(m.Chunks), len(m.Locations))
	}
	var total int64
	for i, c := range m.Chunks {
		if c.Index != i {
			return fmt.Errorf("chunkmap: chunk %d has index %d", i, c.Index)
		}
		if c.Size <= 0 || c.Size > m.ChunkSize {
			return fmt.Errorf("chunkmap: chunk %d has size %d (chunk size %d)", i, c.Size, m.ChunkSize)
		}
		if !m.Variable && i < len(m.Chunks)-1 && c.Size != m.ChunkSize {
			return fmt.Errorf("chunkmap: non-final chunk %d has short size %d", i, c.Size)
		}
		total += c.Size
	}
	if total != m.FileSize {
		return fmt.Errorf("chunkmap: chunk sizes sum to %d, file size %d", total, m.FileSize)
	}
	return nil
}

// Clone returns a deep copy of the map. Chunk maps cross API boundaries;
// per the style guides, slices are copied at those boundaries.
func (m *ChunkMap) Clone() *ChunkMap {
	if m == nil {
		return nil
	}
	out := *m
	out.Chunks = make([]ChunkRef, len(m.Chunks))
	copy(out.Chunks, m.Chunks)
	out.Locations = make([][]NodeID, len(m.Locations))
	for i, locs := range m.Locations {
		out.Locations[i] = append([]NodeID(nil), locs...)
	}
	return &out
}

// MinReplication returns the smallest replica count across chunks, which is
// the replication level of the version as a whole. An empty map has level 0.
func (m *ChunkMap) MinReplication() int {
	if len(m.Locations) == 0 {
		return 0
	}
	min := len(m.Locations[0])
	for _, locs := range m.Locations[1:] {
		if len(locs) < min {
			min = len(locs)
		}
	}
	return min
}

// UniqueChunks returns the set of distinct chunk IDs in the map. With
// incremental checkpointing, versions share chunks and the distinct set is
// smaller than the chunk list.
func (m *ChunkMap) UniqueChunks() map[ChunkID]int64 {
	out := make(map[ChunkID]int64, len(m.Chunks))
	for _, c := range m.Chunks {
		out[c.ID] = c.Size
	}
	return out
}

// ChunkCount returns the number of chunks a file of size fileSize splits
// into at the given chunk size.
func ChunkCount(fileSize, chunkSize int64) int {
	if fileSize <= 0 {
		return 0
	}
	return int((fileSize + chunkSize - 1) / chunkSize)
}

// VersionInfo summarizes one committed version for listings and policy
// decisions.
type VersionInfo struct {
	Dataset     DatasetID `json:"dataset"`
	Version     VersionID `json:"version"`
	Name        string    `json:"name"`
	FileSize    int64     `json:"fileSize"`
	StoredBytes int64     `json:"storedBytes"` // bytes of *new* chunks this version introduced
	Replication int       `json:"replication"`
	CreatedAt   time.Time `json:"createdAt"`
}

// DatasetInfo summarizes a dataset (a named checkpoint file and its version
// chain).
type DatasetInfo struct {
	ID       DatasetID     `json:"id"`
	Name     string        `json:"name"`
	Folder   string        `json:"folder"`
	Versions []VersionInfo `json:"versions"`
}

// NodeState is a benefactor's position in the registry's lifecycle state
// machine: Online (heartbeating) → Suspect (missed heartbeats past the
// node TTL) → Dead (silent past the dead timeout; decommissioned). A
// heartbeat from a Suspect node restores Online; a Dead node must
// re-register, and its chunk locations were already dropped.
type NodeState string

// Node lifecycle states (see NodeState).
const (
	NodeOnline  NodeState = "online"
	NodeSuspect NodeState = "suspect"
	NodeDead    NodeState = "dead"
)

// BenefactorInfo summarizes a benefactor's registration state at the
// manager (soft-state registry, paper §IV.A). Online mirrors
// State == NodeOnline for older consumers of the listing.
type BenefactorInfo struct {
	ID        NodeID    `json:"id"`
	Addr      string    `json:"addr"`
	Capacity  int64     `json:"capacity"`
	Free      int64     `json:"free"`
	Reserved  int64     `json:"reserved"`
	Online    bool      `json:"online"`
	State     NodeState `json:"state,omitempty"`
	LastSeen  time.Time `json:"lastSeen"`
	ChunkHeld int       `json:"chunksHeld"`
}
