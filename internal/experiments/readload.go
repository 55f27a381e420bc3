package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
)

// ReadLoad measures the restore data plane: MB/s to read one committed
// image back from the benefactor pool, serial versus pipelined, across
// chunk sizes. Both arms are the one read scheduler over the client's
// shared multiplexed connections. "Serial" is its degenerate stop-and-wait
// configuration (ReadAheadBytes = one chunk) — one BGet per chunk, the
// next request leaving only after the previous reply landed. "Pipelined"
// is the default reader with no read-side switch set: a 4 MB prefetch
// window whose chunks are grouped by preferred replica and fetched with
// BGetBatch requests that close at 16 IDs or at one pooled reply buffer
// (1 MB + 64 KB) — so at 1 MB chunks every request carries one chunk, as
// a plain BGet, and the window alone provides the overlap.
//
// The reading client's link is modeled with a 1 ms per-request latency
// (device.Profile.LinkDelay: LAN propagation plus the era's protocol
// stack, the cost the paper's striped, pipelined transfers hide — §IV.E).
// The serial transport pays that latency once per chunk, so its restore
// bandwidth collapses as chunks shrink; the pipelined reader overlaps
// the charges across its window and amortizes them across each batch,
// which is the acceptance contrast: at 32 KB chunks the pipelined restore
// must run at least 2x the serial one, with byte-identical output (both
// restores are verified against the written image inside the experiment).
//
// The shape is fixed (Config.Scale has no effect): an 8 MB image striped
// over 4 benefactors, chunk sizes 32 KB / 256 KB / 1 MB; Config.Runs sets
// the repetitions averaged per cell. Everything runs over real loopback
// sockets.
func ReadLoad(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		imageSize   = 8 << 20
		benefactors = 4
		linkDelay   = time.Millisecond
	)
	chunkSizes := []int64{32 << 10, 256 << 10, 1 << 20}

	type cell struct {
		Experiment string  `json:"experiment"`
		ChunkKB    int64   `json:"chunkKB"`
		Mode       string  `json:"mode"` // "serial" | "pipelined"
		FileBytes  int64   `json:"fileBytes"`
		Fetched    int64   `json:"fetchedBytes"`
		Batched    int64   `json:"batchedBytes"`
		RestoreMs  float64 `json:"restoreMs"`
		MBps       float64 `json:"mbps"`
	}

	c, err := grid.Start(grid.Options{
		Benefactors:       benefactors,
		BenefactorProfile: device.Unshaped(),
		Manager: manager.Config{
			HeartbeatInterval:   200 * time.Millisecond,
			ReplicationInterval: time.Hour, // no replica churn mid-measurement
			PruneInterval:       time.Hour,
		},
		GCGrace:    time.Hour,
		GCInterval: time.Hour,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	fmt.Fprintf(cfg.Out, "Pipelined vs serial restore: %d MB image over %d benefactors, %v request latency on the client link\n",
		imageSize>>20, benefactors, linkDelay)
	fmt.Fprintf(cfg.Out, "%-8s %-10s %8s %9s %11s %11s\n",
		"chunk", "mode", "MB/s", "ms", "fetched", "batched")

	readerProfile := device.Profile{LinkDelay: linkDelay}
	var cells []cell
	for ci, chunkSize := range chunkSizes {
		name := fmt.Sprintf("rl.n%d.t0", ci)
		data := readloadImage(uint64(ci)*0x9E3779B97F4A7C15+1, imageSize)

		// Stage the image with an unshaped writer; the write path is not
		// what this experiment measures.
		wcl, _, err := c.NewClient(client.Config{
			StripeWidth: benefactors, ChunkSize: chunkSize, Replication: 1,
			Semantics: core.WriteOptimistic,
		}, device.Unshaped())
		if err != nil {
			return err
		}
		w, err := wcl.Create(name)
		if err == nil {
			if _, err = w.Write(data); err == nil {
				if err = w.Close(); err == nil {
					err = w.Wait()
				}
			}
		}
		wcl.Close()
		if err != nil {
			return fmt.Errorf("readload: stage %s: %w", name, err)
		}

		var perMode [2]cell
		for mi, mode := range []string{"serial", "pipelined"} {
			rcfg := client.Config{
				StripeWidth: benefactors, ChunkSize: chunkSize, Replication: 1,
			}
			if mode == "serial" {
				// Stop-and-wait: a one-chunk window holds one outstanding
				// single-chunk request.
				rcfg.ReadAheadBytes = chunkSize
			}
			rcl, _, err := c.NewClient(rcfg, readerProfile)
			if err != nil {
				return err
			}
			acc := cell{
				Experiment: "readload", ChunkKB: chunkSize >> 10, Mode: mode,
				FileBytes: imageSize,
			}
			for rep := 0; rep < cfg.Runs; rep++ {
				start := time.Now()
				r, err := rcl.Open(name)
				if err != nil {
					rcl.Close()
					return fmt.Errorf("readload %s %dKB: %w", mode, chunkSize>>10, err)
				}
				got, err := r.ReadAll()
				elapsed := time.Since(start)
				fetched, batched := r.BytesFetched(), r.BytesBatched()
				r.Close()
				if err != nil {
					rcl.Close()
					return fmt.Errorf("readload %s %dKB: %w", mode, chunkSize>>10, err)
				}
				if !bytes.Equal(got, data) {
					rcl.Close()
					return fmt.Errorf("readload %s %dKB: restore is not byte-identical to the committed image", mode, chunkSize>>10)
				}
				if fetched != imageSize {
					rcl.Close()
					return fmt.Errorf("readload %s %dKB: fetched %d bytes for a %d-byte image", mode, chunkSize>>10, fetched, imageSize)
				}
				if mode == "serial" && batched != 0 {
					rcl.Close()
					return fmt.Errorf("readload serial %dKB: %d bytes rode BGetBatch on the stop-and-wait plane", chunkSize>>10, batched)
				}
				if mode == "pipelined" {
					// Below 1 MB every refill puts at least two chunks on
					// each node and all of them batch; two 1 MB chunks
					// outgrow a pooled reply buffer, so each rides alone.
					want := int64(imageSize)
					if chunkSize >= 1<<20 {
						want = 0
					}
					if batched != want {
						rcl.Close()
						return fmt.Errorf("readload pipelined %dKB: %d bytes served by BGetBatch, want %d", chunkSize>>10, batched, want)
					}
				}
				acc.Fetched, acc.Batched = fetched, batched
				acc.RestoreMs += float64(elapsed.Microseconds()) / 1000
			}
			rcl.Close()
			acc.RestoreMs /= float64(cfg.Runs)
			acc.MBps = float64(imageSize) / 1e6 / (acc.RestoreMs / 1000)
			perMode[mi] = acc
			cells = append(cells, acc)
			fmt.Fprintf(cfg.Out, "%-8s %-10s %8.1f %9.1f %11d %11d\n",
				fmt.Sprintf("%d KB", chunkSize>>10), acc.Mode, acc.MBps, acc.RestoreMs, acc.Fetched, acc.Batched)
		}
		fmt.Fprintf(cfg.Out, "  -> pipelined speedup at %d KB chunks: %.1fx\n",
			chunkSize>>10, perMode[0].RestoreMs/perMode[1].RestoreMs)
	}
	fmt.Fprintf(cfg.Out, "serial (ReadAheadBytes = one chunk) pays the link latency once per chunk; the default reader's window overlaps it and batches amortize it per request\n")
	fmt.Fprintf(cfg.Out, "paper: striped, pipelined transfers hide per-request cost (§IV.E read-ahead; §V.D); 1-CPU boxes time-slice reader and servers, see EXPERIMENTS.md\n\n")

	if cfg.JSON != nil {
		enc := json.NewEncoder(cfg.JSON)
		for _, cl := range cells {
			if err := enc.Encode(cl); err != nil {
				return fmt.Errorf("readload: json: %w", err)
			}
		}
	}
	return nil
}

// readloadImage builds a deterministic pseudo-random image: xorshift64
// output, so no two chunks of one image are content-identical and FsCH
// dedup cannot collapse the stripe onto a single stored chunk.
func readloadImage(seed uint64, n int) []byte {
	out := make([]byte, n)
	s := seed | 1
	for i := range out {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		out[i] = byte(s)
	}
	return out
}
