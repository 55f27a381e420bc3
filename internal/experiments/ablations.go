package experiments

import (
	"fmt"
	"time"

	"stdchk/internal/chunker"
	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
	"stdchk/internal/metrics"
	"stdchk/internal/workload"
)

// The ablations (Runner.Ablation) bench design choices the paper argues
// only qualitatively — the CbCH hash, replication's write priority, the
// restart read path — plus the paper's stated future work, ordered Xen
// dumps (§V.E).

// AblationRolling compares the paper's overlap CbCH (window hash
// recomputed at every byte) against an O(1)-per-byte rolling-hash variant,
// on the same BLCR trace. The paper motivates GPU offload with overlap
// CbCH's cost; the rolling hash is the software fix LBFS used.
func AblationRolling(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	size := cfg.scaled(279_600_000)
	if size < 16<<20 {
		size = 16 << 20
	}
	tr := workload.BLCR5Min(21, 5, size)
	t := Table{
		Name:    "rolling",
		Title:   fmt.Sprintf("Ablation: overlap CbCH vs rolling-hash CbCH (BLCR-5min, %d x %d MB)", tr.Count(), size>>20),
		Keys:    []string{"technique"},
		Columns: []Column{col("similarity", "%", 1), col("throughput", "MB/s", 1)},
	}
	for _, h := range []chunker.Chunker{
		chunker.ContentDefined{Window: 20, Bits: 14, Advance: 1},
		chunker.ContentDefined{Window: 20, Bits: 14, Advance: 1, Rolling: true},
		chunker.ContentDefined{Window: 20, Bits: 14, Advance: 20},
		chunker.Fixed{Size: 256 << 10},
	} {
		stats := chunker.EvalTrace(h, tr.Images)
		t.add(labels(h.Name()), 100*stats.SimilarityRatio(), stats.ThroughputMBps())
	}
	t.note("takeaway: the rolling hash keeps overlap CbCH's similarity detection at a")
	t.note("fraction of its cost — an alternative to the paper's proposed GPU offload")
	return []Table{t}, nil
}

// AblationXenFix evaluates the paper's stated future work: Xen checkpoint
// images that preserve page order (and keep per-page metadata stable)
// become dedup-friendly again.
func AblationXenFix(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	size := cfg.scaled(1_024_800_000)
	if size < 16<<20 {
		size = 16 << 20
	}
	shuffled := workload.Xen(workload.XenParams{Seed: 31, Images: 4, Size: size})
	ordered := workload.Xen(workload.XenParams{Seed: 31, Images: 4, Size: size, PreserveOrder: true})

	t := Table{
		Name:    "xen-order",
		Title:   fmt.Sprintf("Ablation: Xen page-order fix (%d x %d MB VM images)", 4, size>>20),
		Keys:    []string{"heuristic"},
		Columns: []Column{col("shuffled (stock)", "%", 1), col("ordered (fix)", "%", 1)},
	}
	for _, h := range []chunker.Chunker{
		chunker.Fixed{Size: 4 << 10},
		chunker.Fixed{Size: 256 << 10},
		chunker.ContentDefined{Window: 48, Bits: 13, Advance: 1, Rolling: true},
	} {
		s1 := chunker.EvalTrace(h, shuffled.Images)
		s2 := chunker.EvalTrace(h, ordered.Images)
		t.add(labels(h.Name()), 100*s1.SimilarityRatio(), 100*s2.SimilarityRatio())
	}
	t.note("takeaway: ordering pages (and stabilizing per-page metadata) restores the")
	t.note("similarity that stock Xen destroys (paper §V.E 'surprising result')")
	return []Table{t}, nil
}

// AblationWritePriority measures foreground write bandwidth while the
// replication scheduler runs with and without write priority
// (paper §IV.A: "Creation of new files has priority over replication").
func AblationWritePriority(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	size := cfg.scaled(1 << 30)

	run := func(priority bool) (float64, error) {
		c, err := grid.Start(grid.Options{
			Benefactors:       4,
			BenefactorProfile: device.PaperNode(),
			Manager: manager.Config{
				HeartbeatInterval:   200 * time.Millisecond,
				ReplicationInterval: 50 * time.Millisecond,
				ReplicationParallel: 8,
				WritePriority:       priority,
				DefaultReplication:  3,
			},
			GCGrace:    time.Hour,
			GCInterval: time.Hour,
		})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		cl, _, err := c.NewClient(client.Config{
			Protocol:    client.SlidingWindow,
			StripeWidth: 2,
			ChunkSize:   cfg.chunkSize(),
			BufferBytes: cfg.scaled(32 << 20),
			Replication: 3,
			Semantics:   core.WriteOptimistic,
		}, device.PaperNode())
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		// A background seeder keeps producing under-replicated files for
		// the whole measurement window, so the replication scheduler has
		// a standing backlog of copies in both configurations.
		seedCl, _, err := c.NewClient(client.Config{
			Protocol:    client.SlidingWindow,
			StripeWidth: 2,
			ChunkSize:   cfg.chunkSize(),
			Replication: 3,
			Semantics:   core.WriteOptimistic,
		}, device.PaperNode())
		if err != nil {
			return 0, err
		}
		defer seedCl.Close()
		stopSeed := make(chan struct{})
		seedDone := make(chan struct{})
		go func() {
			defer close(seedDone)
			for i := 0; ; i++ {
				select {
				case <-stopSeed:
					return
				default:
				}
				if _, err := writeOnce(seedCl, fmt.Sprintf("seed.n%d.t0", i), size/2, appBlock); err != nil {
					return
				}
			}
		}()

		var sum metrics.Summary
		for i := 0; i < cfg.Runs+2; i++ {
			m, err := writeOnce(cl, fmt.Sprintf("wp.n%d.t0", i), size, appBlock)
			if err != nil {
				close(stopSeed)
				<-seedDone
				return 0, err
			}
			sum.Add(m.ASBMBps())
		}
		close(stopSeed)
		<-seedDone
		return sum.Mean(), nil
	}

	t := Table{
		Name:    "write-priority",
		Title:   fmt.Sprintf("Ablation: foreground ASB while replication runs (target r=3, %d MB files)", size>>20),
		Keys:    []string{"scheduler"},
		Columns: []Column{col("ASB", "MB/s", 1)},
	}
	for _, priority := range []bool{true, false} {
		asb, err := run(priority)
		if err != nil {
			return nil, err
		}
		label := "with write priority"
		if !priority {
			label = "without write priority"
		}
		t.add(labels(label), asb)
	}
	t.note("note: replication copies move benefactor-to-benefactor, off the client's")
	t.note("links, so in this topology the interference the paper's priority rule")
	t.note("guards against is modest; the rule matters when donors' disks/links are")
	t.note("the shared bottleneck (narrower pools, busier donors)")
	return []Table{t}, nil
}
