package experiments

import (
	"fmt"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/fsiface"
	"stdchk/internal/workload"
)

// localSink checkpoints to the node-local disk (the Table 5 baseline).
type localSink struct {
	node *device.Node
}

func (s *localSink) WriteImage(name string, img []byte) (time.Duration, int64, error) {
	start := time.Now()
	b := fsiface.NewBaseline(fsiface.BaselineLocal, s.node, nil)
	for off := 0; off < len(img); off += appBlock {
		end := off + appBlock
		if end > len(img) {
			end = len(img)
		}
		if _, err := b.Write(img[off:end]); err != nil {
			return 0, 0, err
		}
	}
	b.Close()
	// Local disk stores every byte: no dedup.
	return time.Since(start), int64(len(img)), nil
}

// stdchkSink checkpoints through the stdchk client with FsCH dedup.
type stdchkSink struct {
	cl *client.Client
}

func (s *stdchkSink) WriteImage(name string, img []byte) (time.Duration, int64, error) {
	w, err := s.cl.Create(name)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	for off := 0; off < len(img); off += appBlock {
		end := off + appBlock
		if end > len(img) {
			end = len(img)
		}
		if _, err := w.Write(img[off:end]); err != nil {
			return 0, 0, err
		}
	}
	if err := w.Close(); err != nil {
		return 0, 0, err
	}
	blocked := time.Since(start) // application-perceived checkpoint time
	if err := w.Wait(); err != nil {
		return 0, 0, err
	}
	return blocked, w.Metrics().Uploaded, nil
}

// Table5 regenerates the end-to-end BLAST run: the application alternates
// compute and checkpoint phases, writing each image to local disk
// (baseline) or to stdchk via the sliding window with FsCH. The paper
// reports stdchk improving total execution time by 1.3%, the checkpointing
// time by 27%, and the stored data volume by 69%.
func Table5(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	images := 40
	if cfg.Scale <= 4 {
		images = 75
	}
	imgSize := cfg.scaled(279_600_000)
	// Compute:checkpoint duty cycle ≈ 20:1, the paper run's ratio
	// (462,141 s total vs 22,733 s checkpointing).
	perCkptLocal := time.Duration(float64(imgSize) / device.MBps(86.2) * float64(time.Second))
	compute := 20 * perCkptLocal

	trace := workload.BLCRShortInterval(77, images, imgSize)

	// Baseline: local disk.
	local, err := workload.SimulateRun(workload.RunParams{
		Trace:           trace,
		ComputePerPhase: compute,
		NamePattern:     "blastlocal.n1.t%d",
	}, &localSink{node: device.NewNode(device.PaperNode())})
	if err != nil {
		return nil, fmt.Errorf("table5 local: %w", err)
	}

	// stdchk: sliding window + FsCH on four benefactors.
	c, err := paperCluster(4, 0)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	cl, _, err := c.NewClient(client.Config{
		Protocol:    client.SlidingWindow,
		StripeWidth: 4,
		ChunkSize:   cfg.chunkSize(),
		BufferBytes: cfg.scaled(128 << 20),
		Incremental: true,
		Replication: 1,
		Semantics:   core.WriteOptimistic,
	}, device.PaperNode())
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	std, err := workload.SimulateRun(workload.RunParams{
		Trace:           trace,
		ComputePerPhase: compute,
		NamePattern:     "blast.n1.t%d",
	}, &stdchkSink{cl: cl})
	if err != nil {
		return nil, fmt.Errorf("table5 stdchk: %w", err)
	}

	totalPct, ckptPct, dataPct := std.Improvement(local)
	t := Table{
		Name:    "blast",
		Title:   fmt.Sprintf("Table 5: BLAST end-to-end, %d checkpoints of %d KB (scaled 1/%d), compute:ckpt ≈ 20:1", images, imgSize>>10, cfg.Scale),
		Keys:    []string{"measure", "unit"},
		Columns: []Column{col("local disk", "", 1), col("stdchk", "", 1), col("improvement", "%", 1)},
	}
	t.add(labels("Total execution time", "s"), local.TotalTime.Seconds(), std.TotalTime.Seconds(), totalPct)
	t.add(labels("Checkpointing time", "s"), local.CheckpointTime.Seconds(), std.CheckpointTime.Seconds(), ckptPct)
	t.add(labels("Data size (stored)", "MB"), float64(local.StoredBytes)/1e6, float64(std.StoredBytes)/1e6, dataPct)
	t.note("paper: total 462,141 s -> 455,894 s (1.3%%); checkpointing 22,733 s -> 16,497 s (27%%);")
	t.note("       data 3.55 TB -> 1.14 TB (69%%)")
	return []Table{t}, nil
}
