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
func AblationReadPath(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	size := cfg.scaled(1 << 30)
	chunk := cfg.chunkSize()

	c, err := paperCluster(8, 0)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	t := Table{
		Name:    "read",
		Title:   fmt.Sprintf("Ablation: restart read throughput (%d MB image, chunk %d KB, %d runs)", size>>20, chunk>>10, cfg.Runs),
		Keys:    []string{"stripe width", "read-ahead"},
		Columns: []Column{col("read", "MB/s", 1)},
	}
	readBack := func(cl *client.Client, name string) (float64, error) {
		r, err := cl.Open(name)
		if err != nil {
			return 0, err
		}
		defer r.Close()
		start := time.Now()
		n, err := io.Copy(io.Discard, r)
		return metrics.MBps(n, time.Since(start)), err
	}
	for _, width := range []int{1, 2, 4, 8} {
		for _, readAhead := range []int64{1, 4, 8} {
			m, err := measureCell(c, cfg.Runs, size, func() (*client.Client, error) {
				cl, _, err := c.NewClient(client.Config{
					Protocol:       client.SlidingWindow,
					StripeWidth:    width,
					ChunkSize:      chunk,
					BufferBytes:    cfg.scaled(64 << 20),
					Replication:    1,
					Semantics:      core.WriteOptimistic,
					ReadAheadBytes: readAhead * chunk,
				}, device.PaperNode())
				return cl, err
			}, readBack)
			if err != nil {
				return nil, fmt.Errorf("read width %d ra %d: %w", width, readAhead, err)
			}
			t.add(labels(width, fmt.Sprintf("%d x chunk", readAhead)), m.probe)
		}
	}
	t.note("context: restart latency is bounded by the client NIC once read-ahead")
	t.note("covers the per-chunk round trip; width 1 is bounded by one donor's disk")
	return []Table{t}, nil
}
