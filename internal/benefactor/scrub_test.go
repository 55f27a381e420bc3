package benefactor

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"stdchk/internal/core"
	"stdchk/internal/faultpoint"
	"stdchk/internal/proto"
	"stdchk/internal/store"
	"stdchk/internal/wire"
)

// putChunks stores n distinct chunks and returns their IDs.
func putChunks(t *testing.T, b *Benefactor, n int) []core.ChunkID {
	t.Helper()
	ids := make([]core.ChunkID, n)
	for i := range ids {
		data := []byte(fmt.Sprintf("scrub payload %d", i))
		ids[i] = core.HashChunk(data)
		call(t, b.Addr(), proto.BPut, proto.PutReq{ID: ids[i]}, data, nil)
	}
	return ids
}

// TestScrubCursorResumesAndWraps: with a batch smaller than the
// inventory, successive rounds must cover distinct chunks until the
// cursor wraps — full coverage without ever re-reading the whole store
// in one rate-limit window.
func TestScrubCursorResumesAndWraps(t *testing.T) {
	b := startNode(t, Config{ScrubBatch: 2})
	putChunks(t, b, 5)

	total := 0
	for round := 0; round < 3; round++ {
		checked, corrupt := b.ScrubOnce()
		if checked != 2 || corrupt != 0 {
			t.Fatalf("round %d: checked=%d corrupt=%d, want 2 healthy", round, checked, corrupt)
		}
		total += checked
	}
	if total <= 5 {
		t.Fatalf("scrubbed %d chunk-verifications over 3 rounds of 2; cursor should have wrapped past the 5-chunk inventory", total)
	}
	var stats proto.StatsResp
	call(t, b.Addr(), proto.BStats, nil, nil, &stats)
	if stats.ScrubbedChunks != int64(total) || stats.CorruptChunks != 0 {
		t.Fatalf("stats report %d scrubbed / %d corrupt, want %d / 0", stats.ScrubbedChunks, stats.CorruptChunks, total)
	}
}

// TestScrubQuarantinesCorruptChunk: a failed verification (injected via
// the benefactor.scrub.corrupt faultpoint, standing in for a flipped
// bit) must delete the replica locally and surface in the stats — the
// heartbeat report to the manager is pinned at the grid level.
func TestScrubQuarantinesCorruptChunk(t *testing.T) {
	defer faultpoint.Reset()
	b := startNode(t, Config{ScrubBatch: 64})
	ids := putChunks(t, b, 3)

	if err := faultpoint.Enable("benefactor.scrub.corrupt", faultpoint.Config{
		Mode: faultpoint.ModeError, Count: 1,
	}); err != nil {
		t.Fatal(err)
	}
	checked, corrupt := b.ScrubOnce()
	if checked != 3 || corrupt != 1 {
		t.Fatalf("checked=%d corrupt=%d, want 3 checked with 1 quarantined", checked, corrupt)
	}
	held := 0
	for _, id := range ids {
		if b.Store().Has(id) {
			held++
		}
	}
	if held != 2 {
		t.Fatalf("%d replicas survive the quarantine, want 2 (the corrupt one deleted)", held)
	}
	var stats proto.StatsResp
	call(t, b.Addr(), proto.BStats, nil, nil, &stats)
	if stats.CorruptChunks != 1 {
		t.Fatalf("stats report %d corrupt chunks, want 1", stats.CorruptChunks)
	}

	// The quarantined chunk is gone from the inventory: the next round
	// verifies only survivors and finds them healthy.
	if checked, corrupt := b.ScrubOnce(); checked != 2 || corrupt != 0 {
		t.Fatalf("post-quarantine round: checked=%d corrupt=%d, want 2 healthy", checked, corrupt)
	}
}

// TestServePathQuarantinesCorruptChunk: a disk donor whose own read check
// catches a flipped byte while serving must do what the scrubber would —
// fail that chunk only, delete the replica, and put its ID on the next
// heartbeat — not keep offering it until the scrub cursor comes round.
func TestServePathQuarantinesCorruptChunk(t *testing.T) {
	for _, op := range []string{proto.BGet, proto.BGetBatch} {
		t.Run(op, func(t *testing.T) {
			dir := t.TempDir()
			disk, err := store.OpenDisk(dir, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			b := startNode(t, Config{Store: disk})
			ids := putChunks(t, b, 3)
			bad := ids[1]
			name := bad.String()
			path := filepath.Join(dir, name[:2], name)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			raw[0] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			if op == proto.BGet {
				conn, err := wire.Dial(b.Addr(), nil)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				for i, id := range ids {
					_, err := conn.Call(proto.BGet, proto.GetReq{ID: id}, nil, nil)
					if id == bad && !errors.Is(err, core.ErrIntegrity) {
						t.Fatalf("get of the corrupt chunk: %v, want ErrIntegrity", err)
					}
					if id != bad && err != nil {
						t.Fatalf("get of healthy chunk %d: %v", i, err)
					}
				}
			} else {
				var resp proto.BatchGetResp
				call(t, b.Addr(), proto.BGetBatch, proto.BatchGetReq{IDs: ids}, nil, &resp)
				for i, sz := range resp.Sizes {
					if (sz < 0) != (ids[i] == bad) {
						t.Fatalf("batch sizes = %v, want only slot 1 refused", resp.Sizes)
					}
				}
			}

			if b.Store().Has(bad) {
				t.Fatal("the corrupt replica is still in the store")
			}
			for _, id := range b.Store().Inventory() {
				if id == bad {
					t.Fatal("the corrupt replica is still in the inventory")
				}
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("the corrupt chunk file is still on disk (stat: %v)", err)
			}
			if hb := b.heartbeatReq(); len(hb.Corrupt) != 1 || hb.Corrupt[0] != bad {
				t.Fatalf("next heartbeat reports %v corrupt, want exactly %s", hb.Corrupt, bad.Short())
			}
			var stats proto.StatsResp
			call(t, b.Addr(), proto.BStats, nil, nil, &stats)
			if stats.CorruptChunks != 1 {
				t.Fatalf("stats report %d corrupt chunks, want 1", stats.CorruptChunks)
			}
		})
	}
}
