package experiments

import (
	"fmt"
	"io"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/metrics"
)

// AblationReadPath measures restart performance: the read throughput of a
// committed checkpoint image versus stripe width and read-ahead window
// (client.Config.ReadAheadBytes, swept as 1, 4 and 8 chunks' worth).
// The paper states the design goal ("provide good read performance to
// minimize restart delays", §IV.A) and its FreeLoader lineage demonstrated
// 88 MB/s striped reads from ten 100 Mbps benefactors; this bench
// documents what the reproduction's read path achieves on the Gigabit
// calibration.
func AblationReadPath(cfg Config) error {
	cfg = cfg.withDefaults()
	size := cfg.scaled(1 << 30)
	chunk := cfg.chunkSize()

	c, err := paperCluster(8, 0)
	if err != nil {
		return err
	}
	defer c.Close()

	fmt.Fprintf(cfg.Out, "Ablation: restart read throughput (%d MB image, chunk %d KB, %d runs)\n",
		size>>20, chunk>>10, cfg.Runs)
	fmt.Fprintf(cfg.Out, "%-14s %-12s %12s\n", "stripe width", "read-ahead", "read MB/s")

	fileNo := 0
	for _, width := range []int{1, 2, 4, 8} {
		for _, readAhead := range []int64{1, 4, 8} {
			var sum metrics.Summary
			for run := 0; run < cfg.Runs; run++ {
				cl, _, err := c.NewClient(client.Config{
					Protocol:       client.SlidingWindow,
					StripeWidth:    width,
					ChunkSize:      chunk,
					BufferBytes:    cfg.scaled(64 << 20),
					Replication:    1,
					Semantics:      core.WriteOptimistic,
					ReadAheadBytes: readAhead * chunk,
				}, device.PaperNode())
				if err != nil {
					return err
				}
				fileNo++
				name := fmt.Sprintf("read.n%d.t0", fileNo)
				if _, err := writeOnce(cl, name, size, appBlock); err != nil {
					cl.Close()
					return err
				}
				r, err := cl.Open(name)
				if err != nil {
					cl.Close()
					return err
				}
				start := time.Now()
				n, err := io.Copy(io.Discard, r)
				elapsed := time.Since(start)
				r.Close()
				if err != nil {
					cl.Close()
					return fmt.Errorf("read width %d ra %d: %w", width, readAhead, err)
				}
				sum.Add(metrics.MBps(n, elapsed))
				cl.Delete(name, 0)
				cl.Close()
			}
			c.CollectAll()
			fmt.Fprintf(cfg.Out, "%-14d %-12s %12.1f\n", width, fmt.Sprintf("%d x chunk", readAhead), sum.Mean())
		}
	}
	fmt.Fprintf(cfg.Out, "context: restart latency is bounded by the client NIC once read-ahead\n")
	fmt.Fprintf(cfg.Out, "covers the per-chunk round trip; width 1 is bounded by one donor's disk\n\n")
	return nil
}
