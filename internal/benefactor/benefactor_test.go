package benefactor

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/proto"
	"stdchk/internal/wire"
)

func startNode(t *testing.T, cfg Config) *Benefactor {
	t.Helper()
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func call(t *testing.T, addr, op string, meta interface{}, body []byte, out interface{}) []byte {
	t.Helper()
	conn, err := wire.Dial(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	respBody, err := conn.Call(op, meta, body, out)
	if err != nil {
		t.Fatal(err)
	}
	return respBody
}

func TestPutGetHasDel(t *testing.T) {
	b := startNode(t, Config{})
	data := []byte("the chunk payload")
	id := core.HashChunk(data)

	call(t, b.Addr(), proto.BPut, proto.PutReq{ID: id}, data, nil)
	got := call(t, b.Addr(), proto.BGet, proto.GetReq{ID: id}, nil, nil)
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}

	var has proto.HasResp
	ghost := core.HashChunk([]byte("ghost"))
	call(t, b.Addr(), proto.BHas, proto.HasReq{IDs: []core.ChunkID{id, ghost}}, nil, &has)
	if !has.Present[0] || has.Present[1] {
		t.Fatalf("has = %v", has.Present)
	}

	call(t, b.Addr(), proto.BDel, proto.DelReq{IDs: []core.ChunkID{id}}, nil, nil)
	conn, err := wire.Dial(b.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Call(proto.BGet, proto.GetReq{ID: id}, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("get after del: %v", err)
	}
}

func TestPutRejectsCorruption(t *testing.T) {
	b := startNode(t, Config{})
	conn, err := wire.Dial(b.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var bogus core.ChunkID
	bogus[3] = 0xaa
	if _, err := conn.Call(proto.BPut, proto.PutReq{ID: bogus}, []byte("data"), nil); !errors.Is(err, core.ErrIntegrity) {
		t.Fatalf("corrupt put: %v", err)
	}
}

func TestReplicateBetweenNodes(t *testing.T) {
	src := startNode(t, Config{})
	dst := startNode(t, Config{})
	data := []byte("replicate me")
	id := core.HashChunk(data)
	call(t, src.Addr(), proto.BPut, proto.PutReq{ID: id}, data, nil)

	call(t, src.Addr(), proto.BReplicate, proto.ReplicateReq{ID: id, Target: dst.Addr()}, nil, nil)
	if !dst.Store().Has(id) {
		t.Fatal("chunk not replicated to target")
	}
	got := call(t, dst.Addr(), proto.BGet, proto.GetReq{ID: id}, nil, nil)
	if !bytes.Equal(got, data) {
		t.Fatal("replica corrupted")
	}
}

func TestReplicateMissingChunk(t *testing.T) {
	src := startNode(t, Config{})
	dst := startNode(t, Config{})
	conn, err := wire.Dial(src.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	ghost := core.HashChunk([]byte("nothing"))
	if _, err := conn.Call(proto.BReplicate, proto.ReplicateReq{ID: ghost, Target: dst.Addr()}, nil, nil); !errors.Is(err, core.ErrNotFound) {
		t.Fatalf("replicating missing chunk: %v", err)
	}
}

func TestMapReplicaStorage(t *testing.T) {
	b := startNode(t, Config{})
	data := []byte("chunk for the map")
	id := core.HashChunk(data)
	cm := &core.ChunkMap{
		Dataset:   1,
		Version:   2,
		FileSize:  int64(len(data)),
		ChunkSize: 1024,
		Chunks:    []core.ChunkRef{{Index: 0, ID: id, Size: int64(len(data))}},
		Locations: [][]core.NodeID{{"n1"}},
		CreatedAt: time.Now(),
	}
	call(t, b.Addr(), proto.BMapPut, proto.MapPutReq{Name: "a.n1.t0", Map: cm}, nil, nil)
	// A second version of the same file must coexist.
	cm2 := cm.Clone()
	cm2.Version = 3
	call(t, b.Addr(), proto.BMapPut, proto.MapPutReq{Name: "a.n1.t1", Map: cm2}, nil, nil)

	var list proto.MapListResp
	call(t, b.Addr(), proto.BMapList, nil, nil, &list)
	if len(list.Maps) != 2 {
		t.Fatalf("stored %d maps, want 2", len(list.Maps))
	}
	if list.Maps[0].Name != "a.n1.t0" || list.Maps[0].Map.Version != 2 {
		t.Fatalf("map[0] = %+v", list.Maps[0])
	}
}

func TestStatsAndPing(t *testing.T) {
	b := startNode(t, Config{Capacity: 1 << 20})
	data := bytes.Repeat([]byte("x"), 1024)
	call(t, b.Addr(), proto.BPut, proto.PutReq{ID: core.HashChunk(data)}, data, nil)

	var stats proto.StatsResp
	call(t, b.Addr(), proto.BStats, nil, nil, &stats)
	if stats.Used != 1024 || stats.Capacity != 1<<20 || stats.Chunks != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	var pong proto.HeartbeatResp
	call(t, b.Addr(), proto.BPing, nil, nil, &pong)
	if !pong.OK {
		t.Fatal("ping not OK")
	}
}

func TestUnknownOp(t *testing.T) {
	b := startNode(t, Config{})
	conn, err := wire.Dial(b.Addr(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Call("b.bogus", nil, nil, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestCollectGarbageUnmanaged(t *testing.T) {
	b := startNode(t, Config{})
	n, err := b.CollectGarbage()
	if err != nil || n != 0 {
		t.Fatalf("unmanaged GC = %d, %v", n, err)
	}
}

func TestIDDefaultsToAddr(t *testing.T) {
	b := startNode(t, Config{})
	if string(b.ID()) != b.Addr() {
		t.Fatalf("ID %q != addr %q", b.ID(), b.Addr())
	}
	named := startNode(t, Config{ID: "donor-7"})
	if named.ID() != "donor-7" {
		t.Fatalf("ID = %q", named.ID())
	}
}

func TestCloseIdempotent(t *testing.T) {
	b, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestZeroLengthChunkRoundTrip pins the empty-chunk corner of the pooled
// serve path: fetchChunk must hand the pooled buffer back exactly once
// (a double PutBuf here corrupts the shared wire buffer pool).
func TestZeroLengthChunkRoundTrip(t *testing.T) {
	b := startNode(t, Config{})
	id := core.HashChunk(nil) // SHA-1 of the empty payload

	call(t, b.Addr(), proto.BPut, proto.PutReq{ID: id}, nil, nil)
	for i := 0; i < 4; i++ {
		got := call(t, b.Addr(), proto.BGet, proto.GetReq{ID: id}, nil, nil)
		if len(got) != 0 {
			t.Fatalf("empty chunk read back %d bytes", len(got))
		}
	}
	// Interleave a normal chunk to catch pool aliasing: a double-put of
	// the empty chunk's buffer would hand the same backing array to two
	// concurrent frames and corrupt one of them.
	data := bytes.Repeat([]byte("x"), 3000)
	did := core.HashChunk(data)
	call(t, b.Addr(), proto.BPut, proto.PutReq{ID: did}, data, nil)
	for i := 0; i < 4; i++ {
		if len(call(t, b.Addr(), proto.BGet, proto.GetReq{ID: id}, nil, nil)) != 0 {
			t.Fatal("empty chunk grew")
		}
		got := call(t, b.Addr(), proto.BGet, proto.GetReq{ID: did}, nil, nil)
		if core.HashChunk(got) != did {
			t.Fatal("payload corrupted by pooled-buffer aliasing")
		}
	}
}

// TestGetBatchIsBounded sends BGetBatch requests larger than the benefactor
// will assemble. Neither the ID count nor the summed chunk sizes are
// trusted: the reply stops at the largest pooled buffer or at
// proto.MaxBatchIDs, and every slot past the bound is answered -1 so the
// caller's per-chunk failover picks it up.
func TestGetBatchIsBounded(t *testing.T) {
	b := startNode(t, Config{})
	put := func(data []byte) core.ChunkID {
		id := core.HashChunk(data)
		call(t, b.Addr(), proto.BPut, proto.PutReq{ID: id}, data, nil)
		return id
	}

	// Body bound: five 300 KB chunks sum to 1.5 MB; three fit a pooled
	// buffer. The small chunk after the cut is past the bound too.
	var ids []core.ChunkID
	var want []byte
	for i := 0; i < 5; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 300<<10)
		ids = append(ids, put(data))
		if i < 3 {
			want = append(want, data...)
		}
	}
	ids = append(ids, put([]byte("small, but after the cut")))
	var resp proto.BatchGetResp
	body := call(t, b.Addr(), proto.BGetBatch, proto.BatchGetReq{IDs: ids}, nil, &resp)
	if len(body) > wire.MaxPooledBuf || !bytes.Equal(body, want) {
		t.Fatalf("body is %d bytes, want the first three chunks (%d bytes)", len(body), len(want))
	}
	if len(resp.Sizes) != len(ids) {
		t.Fatalf("%d sizes for %d ids", len(resp.Sizes), len(ids))
	}
	for i, sz := range resp.Sizes {
		if i < 3 && sz != 300<<10 || i >= 3 && sz != -1 {
			t.Fatalf("sizes = %v, want three served slots then -1", resp.Sizes)
		}
	}

	// ID bound: one tiny chunk named MaxBatchIDs+8 times.
	tiny := []byte("tiny")
	tinyID := put(tiny)
	ids = ids[:0]
	for i := 0; i < proto.MaxBatchIDs+8; i++ {
		ids = append(ids, tinyID)
	}
	resp = proto.BatchGetResp{}
	body = call(t, b.Addr(), proto.BGetBatch, proto.BatchGetReq{IDs: ids}, nil, &resp)
	if len(body) != proto.MaxBatchIDs*len(tiny) || len(resp.Sizes) != len(ids) {
		t.Fatalf("body %d bytes, %d sizes; want %d bytes, %d sizes",
			len(body), len(resp.Sizes), proto.MaxBatchIDs*len(tiny), len(ids))
	}
	for i, sz := range resp.Sizes {
		if i < proto.MaxBatchIDs && sz != int64(len(tiny)) || i >= proto.MaxBatchIDs && sz != -1 {
			t.Fatalf("slot %d answered %d", i, sz)
		}
	}
}
