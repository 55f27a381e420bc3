package experiments

import (
	"fmt"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/metrics"
	"stdchk/internal/workload"
)

// Fig7 regenerates the incremental-checkpointing write experiment: 75
// successive BLCR checkpoint images written through the sliding-window
// protocol with and without FsCH dedup, across write-buffer sizes. The
// paper reports slightly lower OAB with FsCH (hashing overhead, worst with
// large buffers where the write is memory-bound) in exchange for ~24% less
// storage space and network effort.
func Fig7(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	chunk := cfg.chunkSize()
	images := 75
	if cfg.Scale > 8 {
		images = 25 // keep the sweep quick at small scales
	}
	imgSize := cfg.scaled(279_600_000) // BLCR average checkpoint, 279.6 MB

	c, err := paperCluster(4, 0)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	t := Table{
		Name:    "fsch",
		Title:   fmt.Sprintf("Figure 7: sliding window ± FsCH, %d successive BLCR images of %d KB (scaled 1/%d)", images, imgSize>>10, cfg.Scale),
		Keys:    []string{"buffer (paper)", "FsCH"},
		Columns: []Column{col("OAB", "MB/s", 1), col("ASB", "MB/s", 1), col("bytes saved", "%", 1)},
	}

	for _, paperBuf := range []int64{64 << 20, 128 << 20, 256 << 20} {
		for _, incremental := range []bool{false, true} {
			tr := workload.BLCR5Min(42, images, imgSize)
			cl, _, err := c.NewClient(client.Config{
				Protocol:    client.SlidingWindow,
				StripeWidth: 4,
				ChunkSize:   chunk,
				BufferBytes: cfg.scaled(paperBuf),
				Incremental: incremental,
				Replication: 1,
				Semantics:   core.WriteOptimistic,
			}, device.PaperNode())
			if err != nil {
				return nil, err
			}
			var oab, asb metrics.Summary
			var logical, uploaded int64
			for i, img := range tr.Images {
				name := fmt.Sprintf("fsch%d%v.n1.t%d", paperBuf>>20, incremental, i)
				m, err := writeImage(cl, name, img)
				if err != nil {
					cl.Close()
					return nil, err
				}
				oab.Add(m.OABMBps())
				asb.Add(m.ASBMBps())
				logical += m.Bytes
				uploaded += m.Uploaded
			}
			saved := 0.0
			if logical > 0 {
				saved = 100 * float64(logical-uploaded) / float64(logical)
			}
			t.add(labels(fmt.Sprintf("%dMB", paperBuf>>20), incremental), oab.Mean(), asb.Mean(), saved)
			// Clear state between configurations.
			cl.Delete(fmt.Sprintf("fsch%d%v.n1", paperBuf>>20, incremental), 0)
			cl.Close()
			c.CollectAll()
		}
	}
	t.note("paper: SW-FsCH ≈116 MB/s OAB / 84 MB/s ASB, 24%% space+network saving;")
	t.note("       at 256 MB buffers OAB drops ≈25%% (memory-bound write pays the hashing)")
	return []Table{t}, nil
}
