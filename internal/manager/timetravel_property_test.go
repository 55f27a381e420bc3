package manager

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
)

// synthChunk builds a commit chunk whose ID really is the SHA-1 of the
// given bytes, so the catalog's content-addressed diff can be checked
// against a brute-force byte comparison of the reconstructed images.
func synthChunk(data []byte) proto.CommitChunk {
	return proto.CommitChunk{
		ID:        core.HashChunk(data),
		Size:      int64(len(data)),
		Locations: []core.NodeID{"n1"},
	}
}

// commitSynth commits one version whose chunk contents are exactly parts.
func commitSynth(t *testing.T, c *catalog, name, folder string, chunkSize int64, parts [][]byte) {
	t.Helper()
	chunks := make([]proto.CommitChunk, len(parts))
	var total int64
	for i, p := range parts {
		chunks[i] = synthChunk(p)
		total += int64(len(p))
	}
	if _, _, _, err := c.commit(name, folder, 1, chunkSize, false, total, chunks, "prop"); err != nil {
		t.Fatalf("commit %s: %v", name, err)
	}
}

func flatten(parts [][]byte) []byte {
	var out []byte
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// TestDiffPropertyMatchesBruteForce pins the diff contract on random
// version chains: for every version pair, the returned ranges must be
// sorted, non-overlapping, coalesced, and in-bounds; every byte OUTSIDE
// the ranges must be identical between the two reconstructed images (the
// safety half — diff is always a superset of the byte diff); and under
// fixed chunking every range must contain at least one byte that actually
// changed or lies beyond the from-version (the exactness half — no chunk
// is reported changed gratuitously).
func TestDiffPropertyMatchesBruteForce(t *testing.T) {
	const chunkSize = int64(64)
	rng := rand.New(rand.NewSource(8))
	freshChunk := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	for trial := 0; trial < 25; trial++ {
		c := newCatalog()
		name := fmt.Sprintf("dp.n%d", trial)

		// A chain of 2-4 versions; each next version mutates some chunks in
		// place, sometimes truncates, sometimes appends, and sometimes ends
		// in a short final chunk — every shape fixed chunking allows.
		nVersions := 2 + rng.Intn(3)
		images := make([][][]byte, nVersions)
		for v := 0; v < nVersions; v++ {
			var parts [][]byte
			if v == 0 {
				for i, n := 0, 1+rng.Intn(8); i < n; i++ {
					parts = append(parts, freshChunk(int(chunkSize)))
				}
			} else {
				prev := images[v-1]
				parts = append([][]byte(nil), prev...)
				// The inherited final chunk may be short; a short non-final
				// chunk is illegal under fixed chunking, so pad it whenever
				// anything may follow it.
				if last := len(parts) - 1; int64(len(parts[last])) != chunkSize {
					parts[last] = freshChunk(int(chunkSize))
				}
				for i := range parts {
					if rng.Float64() < 0.4 {
						parts[i] = freshChunk(int(chunkSize))
					}
				}
				switch {
				case rng.Float64() < 0.25 && len(parts) > 1:
					parts = parts[:len(parts)-1] // truncate
				case rng.Float64() < 0.35:
					parts = append(parts, freshChunk(int(chunkSize)))
				}
			}
			// Sometimes shorten the final chunk (legal under fixed chunking).
			if rng.Float64() < 0.3 {
				last := len(parts) - 1
				parts[last] = freshChunk(1 + rng.Intn(int(chunkSize)))
			}
			images[v] = parts
			commitSynth(t, c, fmt.Sprintf("%s.t%d", name, v), "dp", chunkSize, parts)
		}

		hist, err := c.history(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(hist.Versions) != nVersions {
			t.Fatalf("trial %d: history has %d versions, want %d", trial, len(hist.Versions), nVersions)
		}

		for i := 0; i < nVersions; i++ {
			for j := 0; j < nVersions; j++ {
				from, to := hist.Versions[i], hist.Versions[j]
				d, err := c.diff(name, from.Version, to.Version)
				if err != nil {
					t.Fatalf("trial %d diff v%d..v%d: %v", trial, from.Version, to.Version, err)
				}
				imgFrom, imgTo := flatten(images[i]), flatten(images[j])
				if d.FromSize != int64(len(imgFrom)) || d.ToSize != int64(len(imgTo)) {
					t.Fatalf("trial %d: diff sizes %d/%d, want %d/%d",
						trial, d.FromSize, d.ToSize, len(imgFrom), len(imgTo))
				}
				if i == j && (d.DiffBytes != 0 || len(d.Ranges) != 0) {
					t.Fatalf("trial %d: self-diff reports changes: %+v", trial, d)
				}

				// Range well-formedness: sorted, coalesced (a gap between
				// consecutive ranges), in-bounds, DiffBytes consistent.
				covered := make([]bool, len(imgTo))
				var sum, prevEnd int64
				for k, r := range d.Ranges {
					if r.Length <= 0 || r.Offset < 0 || r.Offset+r.Length > int64(len(imgTo)) {
						t.Fatalf("trial %d: range %d out of bounds: %+v (to size %d)", trial, k, r, len(imgTo))
					}
					if k > 0 && r.Offset <= prevEnd {
						t.Fatalf("trial %d: ranges not sorted/coalesced: %+v", trial, d.Ranges)
					}
					prevEnd = r.Offset + r.Length
					sum += r.Length
					for off := r.Offset; off < r.Offset+r.Length; off++ {
						covered[off] = true
					}
				}
				if sum != d.DiffBytes {
					t.Fatalf("trial %d: DiffBytes %d != range sum %d", trial, d.DiffBytes, sum)
				}

				// Safety: every uncovered byte of `to` must exist in `from`
				// at the same offset with the same value.
				for off := range imgTo {
					if covered[off] {
						continue
					}
					if off >= len(imgFrom) || imgFrom[off] != imgTo[off] {
						t.Fatalf("trial %d v%d..v%d: byte %d outside ranges but differs",
							trial, from.Version, to.Version, off)
					}
				}

				// Exactness under fixed chunking: each range justifies
				// itself with at least one genuinely changed or new byte.
				for _, r := range d.Ranges {
					justified := false
					for off := r.Offset; off < r.Offset+r.Length; off++ {
						if off >= int64(len(imgFrom)) || imgFrom[off] != imgTo[off] {
							justified = true
							break
						}
					}
					if !justified {
						t.Fatalf("trial %d v%d..v%d: range %+v covers only identical bytes",
							trial, from.Version, to.Version, r)
					}
				}
			}
		}
	}
}

// TestRetentionPropertyNoLiveChunkOrphaned pins the retention worker's
// core safety property: a retention sweep must never orphan a chunk that
// any surviving version — of any dataset, retained or merely untouched —
// still references. Chunk contents are drawn from a small pool so
// versions share chunks heavily across datasets and versions, the exact
// regime where a naive per-version delete would free shared chunks.
func TestRetentionPropertyNoLiveChunkOrphaned(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	pool := make([][]byte, 10)
	for i := range pool {
		pool[i] = []byte(fmt.Sprintf("chunk-pool-%02d-%032d", i, i))
	}
	chunkSize := int64(len(pool[0]))

	for trial := 0; trial < 20; trial++ {
		c := newCatalog()
		base := time.Date(2026, 8, 7, 0, 0, 0, 0, time.UTC)
		nDatasets := 2 + rng.Intn(3)
		for d := 0; d < nDatasets; d++ {
			key := fmt.Sprintf("rp.n%d", d)
			nVersions := 1 + rng.Intn(6)
			for v := 0; v < nVersions; v++ {
				var parts [][]byte
				for i, n := 0, 1+rng.Intn(4); i < n; i++ {
					parts = append(parts, pool[rng.Intn(len(pool))])
				}
				commitSynth(t, c, fmt.Sprintf("%s.t%d", key, v), "rp", chunkSize, parts)
				// Backdate the commit to a controlled instant so keep-hourly
				// schedules see a spread of hour buckets.
				sh := c.dsShardOf(key)
				sh.lock()
				vs := sh.byName[key].versions
				vs[len(vs)-1].committedAt = base.Add(time.Duration(d*nVersions+v) * 23 * time.Minute)
				sh.unlock()
			}
		}

		r := core.Retention{KeepLast: rng.Intn(3), KeepHourly: rng.Intn(3)}
		if !r.Enabled() {
			r.KeepLast = 1
		}
		var cutoff time.Time
		if rng.Float64() < 0.5 {
			cutoff = base.Add(time.Duration(rng.Intn(300)) * time.Minute)
		}
		_, orphans, err := c.applyRetention("rp", r, cutoff)
		if err != nil {
			t.Fatal(err)
		}

		// Recompute, from scratch, every chunk any surviving version still
		// references — independent of the catalog's refcount bookkeeping.
		live := make(map[core.ChunkID]struct{})
		for d := 0; d < nDatasets; d++ {
			key := fmt.Sprintf("rp.n%d", d)
			sh := c.dsShardOf(key)
			sh.rlock()
			if ds, ok := sh.byName[key]; ok {
				for _, v := range ds.versions {
					for _, ref := range v.chunks {
						live[ref.ID] = struct{}{}
					}
				}
			}
			sh.runlock()
		}
		for _, id := range orphans {
			if _, still := live[id]; still {
				t.Fatalf("trial %d (%+v, cutoff %v): orphaned chunk %s is still referenced by a surviving version",
					trial, r, cutoff, id)
			}
			if c.referenced(id) {
				t.Fatalf("trial %d: orphan %s still has catalog references", trial, id)
			}
		}

		// Every surviving version must still resolve to a valid map — the
		// sweep may not have half-removed anything.
		for d := 0; d < nDatasets; d++ {
			key := fmt.Sprintf("rp.n%d", d)
			sh := c.dsShardOf(key)
			sh.rlock()
			ds, ok := sh.byName[key]
			var vers []core.VersionID
			if ok {
				for _, v := range ds.versions {
					vers = append(vers, v.id)
				}
			}
			sh.runlock()
			for _, ver := range vers {
				_, cm, err := c.getMap(key, ver, 0)
				if err != nil {
					t.Fatalf("trial %d: surviving %s@%d no longer resolves: %v", trial, key, ver, err)
				}
				if err := cm.Validate(); err != nil {
					t.Fatalf("trial %d: surviving %s@%d map invalid: %v", trial, key, ver, err)
				}
			}
		}
	}
}

// TestHistoryDiffHandlers drives MHistory and MDiff through the real
// Invoke dispatch: the per-RPC stats counters must tick, and both
// handlers must honor the partition filter the same way the data plane
// does (a standalone manager refuses a router-stamped epoch).
func TestHistoryDiffHandlers(t *testing.T) {
	m, err := New(Config{HeartbeatInterval: time.Hour, SessionTTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Invoke(proto.MRegister, regReq("n1", 1<<30), nil); err != nil {
		t.Fatal(err)
	}
	commitFile(t, m, "hd.n1.t0", 1, 4)
	commitFile(t, m, "hd.n1.t1", 2, 4)

	var hist proto.HistoryResp
	if err := m.Invoke(proto.MHistory, proto.HistoryReq{Name: "hd.n1"}, &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Versions) != 2 {
		t.Fatalf("history has %d versions, want 2", len(hist.Versions))
	}
	var d proto.DiffResp
	if err := m.Invoke(proto.MDiff, proto.DiffReq{
		Name: "hd.n1", From: hist.Versions[0].Version, To: hist.Versions[1].Version,
	}, &d); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Ops[proto.MHistory].Count != 1 || st.Ops[proto.MDiff].Count != 1 {
		t.Fatalf("stats count %d histories / %d diffs, want 1 / 1", st.Ops[proto.MHistory].Count, st.Ops[proto.MDiff].Count)
	}

	// A router-stamped epoch against a standalone manager is the
	// misconfiguration the epoch check exists for.
	if err := m.Invoke(proto.MHistory, proto.HistoryReq{Name: "hd.n1", Epoch: proto.Epoch{PartitionEpoch: 0xbeef}}, &hist); err == nil {
		t.Fatal("standalone manager accepted an epoch-stamped history request")
	}
	if err := m.Invoke(proto.MDiff, proto.DiffReq{Name: "hd.n1", Epoch: proto.Epoch{PartitionEpoch: 0xbeef}}, &d); err == nil {
		t.Fatal("standalone manager accepted an epoch-stamped diff request")
	}
}
