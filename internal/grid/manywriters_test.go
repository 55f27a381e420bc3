package grid

import (
	"bytes"
	"sync"
	"testing"

	"stdchk/internal/chunker"
	"stdchk/internal/client"
	"stdchk/internal/device"
	"stdchk/internal/manager"
	"stdchk/internal/workload"
)

// TestManyWritersSaturation is the client-scale-out acceptance test for
// the striped metadata plane: dozens of concurrent clients, each
// checkpointing a small image trace with a mix of fixed and content-based
// chunking, all through real sockets against one manager. Every commit
// must land, every dataset must read back intact, and the manager's
// per-stripe counters must account for the traffic. Run under -race this
// doubles as the concurrency audit of the sharded catalog, session table
// and chunk index.
func TestManyWritersSaturation(t *testing.T) {
	writers, checkpoints := 24, 3
	imageSize := int64(96 << 10)
	if testing.Short() {
		writers, checkpoints = 8, 2
	}
	c := testCluster(t, 4, manager.Config{})
	specs := workload.ManyWriters(7, writers, checkpoints, imageSize)

	var wg sync.WaitGroup
	errCh := make(chan error, len(specs))
	for _, spec := range specs {
		wg.Add(1)
		go func(spec workload.WriterSpec) {
			defer wg.Done()
			cfg := client.Config{
				StripeWidth: 2,
				ChunkSize:   16 << 10,
				Replication: 1,
				Incremental: true,
			}
			if spec.CbCH {
				cfg.Chunking = client.ChunkCbCH
				cfg.CbCH = chunker.StreamParams{Window: 48, Bits: 12, Min: 4 << 10, Max: 16 << 10}
			}
			cl, _, err := c.NewClient(cfg, device.Unshaped())
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for ti, img := range spec.Trace().Images {
				w, err := cl.Create(spec.FileName(ti))
				if err != nil {
					errCh <- err
					return
				}
				if _, err := w.Write(img); err != nil {
					errCh <- err
					return
				}
				if err := w.Close(); err != nil {
					errCh <- err
					return
				}
				if err := w.Wait(); err != nil {
					errCh <- err
					return
				}
			}
		}(spec)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	stats := c.Manager.Stats()
	if n := counter(t, stats, "catalog.datasets"); n != int64(writers) {
		t.Fatalf("manager has %d datasets, want %d", n, writers)
	}
	if n := counter(t, stats, "catalog.versions"); n != int64(writers*checkpoints) {
		t.Fatalf("manager has %d versions, want %d", n, writers*checkpoints)
	}
	if len(stats.CatalogStripes) == 0 || len(stats.ChunkStripes) == 0 {
		t.Fatal("per-stripe counters missing from ManagerStats")
	}
	if stats.StripeOps == 0 {
		t.Fatal("stripe ops counter never moved under load")
	}
	// Striping must spread the traffic: with 24 datasets over 16 stripes,
	// more than one dataset stripe has to see lock activity.
	busy := 0
	for _, s := range stats.CatalogStripes {
		if s.Ops > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d dataset stripes saw traffic; sharding is not spreading load", busy)
	}

	// Spot-check round-trip integrity across both chunking regimes: the
	// first fixed writer and the first CbCH writer, every version.
	for _, spec := range specs[:2] {
		cl, _, err := c.NewClient(client.Config{StripeWidth: 2, ChunkSize: 16 << 10}, device.Unshaped())
		if err != nil {
			t.Fatal(err)
		}
		for ti, img := range spec.Trace().Images {
			r, err := cl.Open(spec.FileName(ti))
			if err != nil {
				t.Fatalf("%s: %v", spec.FileName(ti), err)
			}
			got, err := r.ReadAll()
			r.Close()
			if err != nil {
				t.Fatalf("%s: %v", spec.FileName(ti), err)
			}
			if !bytes.Equal(got, img) {
				t.Fatalf("%s corrupted on round trip (%d bytes, want %d)", spec.FileName(ti), len(got), len(img))
			}
		}
		cl.Close()
	}
}
