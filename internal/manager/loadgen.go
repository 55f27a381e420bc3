package manager

import (
	"encoding/binary"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// DriveCheckpoint pushes one synthetic writer checkpoint through a
// metadata plane: alloc, extend, a batched dedup probe, commit, and a
// chunk-map fetch — the §V.E transaction mix. call sends each RPC, with
// federation.Router.Call's signature: a Router's Call goes over the wire
// to the dataset's owner, and in-process callers pass a closure over a
// Manager's Invoke. The first half of the chunks is "stable" content
// identical across the writer's versions (uploaded at t=0, copy-on-write
// references after); the rest is fresh per version. Variable
// (CbCH-style) checkpoints commit a shorter final span to exercise
// variable-size validation.
//
// BenchmarkManagerOps and the managerload, restartload, fedload and
// openload experiments all drive this one workload. Returns the number
// of RPCs issued (also on error, for tps accounting).
func DriveCheckpoint(call func(op, name string, req, resp interface{}) error, name string, seed int64, t, chunksPer int, chunkSize int64, variable bool) (int64, error) {
	var ops int64
	reserve := int64(chunksPer) * chunkSize / 2

	var alloc proto.AllocResp
	err := call(proto.MAlloc, name, &proto.AllocReq{
		Name: name, StripeWidth: 4, ChunkSize: chunkSize,
		Variable: variable, ReserveBytes: reserve, Replication: 1,
	}, &alloc)
	ops++
	if err != nil {
		return ops, err
	}
	locs := make([]core.NodeID, 0, len(alloc.Stripe))
	for _, st := range alloc.Stripe {
		locs = append(locs, st.ID)
	}

	if err := call(proto.MExtend, name, &proto.ExtendReq{WriteID: alloc.WriteID, Bytes: reserve}, nil); err != nil {
		return ops + 1, err
	}
	ops++

	ids, chunks, fileSize := BuildCheckpoint(seed, t, chunksPer, chunkSize, variable, locs)

	if err := call(proto.MHasChunks, name, &proto.HasReq{IDs: ids}, nil); err != nil {
		return ops + 1, err
	}
	ops++

	if err := call(proto.MCommit, name, &proto.CommitReq{WriteID: alloc.WriteID, FileSize: fileSize, Chunks: chunks}, nil); err != nil {
		return ops + 1, err
	}
	ops++

	if err := call(proto.MGetMap, name, &proto.GetMapReq{Name: name}, nil); err != nil {
		return ops + 1, err
	}
	ops++
	return ops, nil
}

// DriveCheckpointOps is the number of RPCs one successful DriveCheckpoint
// issues.
const DriveCheckpointOps = 5

// BuildCheckpoint constructs the synthetic commit payload DriveCheckpoint
// pushes: the dedup-probe ID list, the commit chunk list, and the file
// size. The first half of the chunks is stable across the writer's
// versions (uploaded at t=0, copy-on-write references after); the rest is
// fresh per version.
func BuildCheckpoint(seed int64, t, chunksPer int, chunkSize int64, variable bool, locs []core.NodeID) ([]core.ChunkID, []proto.CommitChunk, int64) {
	ids := make([]core.ChunkID, chunksPer)
	chunks := make([]proto.CommitChunk, chunksPer)
	var fileSize int64
	for j := range ids {
		stable := j < chunksPer/2
		ids[j] = loadChunkID(seed, t, j, stable)
		size := chunkSize
		if variable && j == chunksPer-1 {
			size = chunkSize / 2
		}
		chunks[j] = proto.CommitChunk{ID: ids[j], Size: size}
		if !stable || t == 0 {
			chunks[j].Locations = locs
		}
		fileSize += size
	}
	return ids, chunks, fileSize
}

// loadChunkID derives a deterministic content hash for one synthetic
// chunk. Stable chunks keep the same ID across versions (the dedup /
// copy-on-write population); fresh chunks are unique per (version, index).
func loadChunkID(seed int64, t, j int, stable bool) core.ChunkID {
	var b [24]byte
	binary.BigEndian.PutUint64(b[0:8], uint64(seed))
	binary.BigEndian.PutUint64(b[8:16], uint64(j))
	if !stable {
		binary.BigEndian.PutUint64(b[16:24], uint64(t)+1)
	}
	return core.HashChunk(b[:])
}
