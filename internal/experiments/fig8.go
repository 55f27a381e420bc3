package experiments

import (
	"fmt"
	"sync"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/metrics"
)

// Fig8 regenerates the scalability experiment (§V.F): 7 clients each
// write 100 files of 100 MB to a pool of 20 benefactors, clients starting
// at 10-second intervals. The paper sustains ≈280 MB/s aggregate, limited
// by the testbed's networking configuration — modelled here as a shared
// fabric cap.
func Fig8(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	const (
		clients       = 7
		filesPerCl    = 100
		paperFileSize = 100 << 20
		// The paper's sustained aggregate was fabric-limited at
		// ≈280 MB/s; the switch model carries that calibration.
		fabricBps = 280e6
	)
	fileSize := cfg.scaled(paperFileSize)
	stagger := time.Duration(int64(10*time.Second) / cfg.Scale)
	bucket := time.Duration(int64(10*time.Second) / cfg.Scale)
	if bucket < 50*time.Millisecond {
		bucket = 50 * time.Millisecond
	}
	files := filesPerCl
	if cfg.Scale > 8 {
		files = 30 // bound total wall time at small scales
	}

	c, err := paperCluster(20, fabricBps)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	agg := metrics.NewThroughput(bucket)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	start := time.Now()
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * stagger) // ramp-up
			cl, _, err := c.NewClient(client.Config{
				Protocol:    client.SlidingWindow,
				StripeWidth: 4,
				ChunkSize:   cfg.chunkSize(),
				BufferBytes: cfg.scaled(64 << 20),
				// Scaled so the eager-reservation protocol issues the
				// paper's ~4 manager transactions per 100 MB write.
				ReserveQuantum: cfg.scaled(32 << 20),
				Replication:    1,
				Semantics:      core.WriteOptimistic,
			}, device.PaperNode())
			if err != nil {
				errCh <- err
				return
			}
			defer cl.Close()
			for f := 0; f < files; f++ {
				name := fmt.Sprintf("load.n%d.t%d", i, f)
				m, err := writeOnce(cl, name, fileSize, appBlock)
				if err != nil {
					errCh <- fmt.Errorf("client %d file %d: %w", i, f, err)
					return
				}
				agg.Add(m.Bytes)
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return nil, err
	}
	elapsed := time.Since(start)

	series := Table{
		Name:    "aggregate",
		Title:   fmt.Sprintf("Figure 8: %d clients x %d files x %d KB over 20 benefactors (scaled 1/%d)", clients, files, fileSize>>10, cfg.Scale),
		Keys:    []string{"t (bucket)"},
		Columns: []Column{col("aggregate", "MB/s", 1)},
	}
	for _, p := range agg.Series() {
		series.add(labels(p.T), p.MBps)
	}
	stats := c.Manager.Stats()
	summary := Table{
		Name:  "summary",
		Title: "Figure 8 summary",
		Keys:  []string{"clients"},
		Columns: []Column{
			col("total", "MB", 1), col("elapsed", "s", 3), col("sustained peak (3 buckets)", "MB/s", 1),
			col("fabric cap", "MB/s", 1), col("manager transactions", "", 0), col("per write", "", 1),
		},
	}
	summary.add(labels(clients), float64(agg.Total())/1e6, elapsed.Seconds(), agg.SustainedPeak(3),
		fabricBps/1e6, float64(stats.Transactions), float64(stats.Transactions)/float64(clients*files))
	summary.note("paper: sustained ≈280 MB/s (fabric-limited), ≈2800 transactions for 700 writes")
	return []Table{series, summary}, nil
}
