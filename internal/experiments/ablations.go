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

// Ablations returns the extension experiments: design-choice benches that
// the paper argues qualitatively (DESIGN.md §7) plus the paper's stated
// future work.
func Ablations() []Runner {
	return []Runner{
		{Name: "ablation-rolling", Title: "Rolling-hash CbCH vs paper's overlap/no-overlap", Run: AblationRolling},
		{Name: "ablation-xenfix", Title: "Ordered Xen dumps restore similarity", Run: AblationXenFix},
		{Name: "ablation-writepriority", Title: "Replication write-priority throttling", Run: AblationWritePriority},
		{Name: "ablation-readpath", Title: "Restart read throughput vs stripe width and read-ahead", Run: AblationReadPath},
	}
}

// FindAblation locates an ablation runner by name.
func FindAblation(name string) (Runner, bool) {
	for _, r := range Ablations() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// AblationRolling compares the paper's overlap CbCH (window hash
// recomputed at every byte) against an O(1)-per-byte rolling-hash variant,
// on the same BLCR trace. The paper motivates GPU offload with overlap
// CbCH's cost; the rolling hash is the software fix LBFS used.
func AblationRolling(cfg Config) error {
	cfg = cfg.withDefaults()
	size := cfg.scaled(279_600_000)
	if size < 16<<20 {
		size = 16 << 20
	}
	tr := workload.BLCR5Min(21, 5, size)
	fmt.Fprintf(cfg.Out, "Ablation: overlap CbCH vs rolling-hash CbCH (BLCR-5min, %d x %d MB)\n",
		tr.Count(), size>>20)
	fmt.Fprintf(cfg.Out, "%-36s %12s %12s\n", "technique", "similarity", "MB/s")
	for _, h := range []chunker.Chunker{
		chunker.ContentDefined{Window: 20, Bits: 14, Advance: 1},
		chunker.ContentDefined{Window: 20, Bits: 14, Advance: 1, Rolling: true},
		chunker.ContentDefined{Window: 20, Bits: 14, Advance: 20},
		chunker.Fixed{Size: 256 << 10},
	} {
		stats := chunker.EvalTrace(h, tr.Images)
		fmt.Fprintf(cfg.Out, "%-36s %11.1f%% %12.1f\n",
			h.Name(), 100*stats.SimilarityRatio(), stats.ThroughputMBps())
	}
	fmt.Fprintf(cfg.Out, "takeaway: the rolling hash keeps overlap CbCH's similarity detection at a\n")
	fmt.Fprintf(cfg.Out, "fraction of its cost — an alternative to the paper's proposed GPU offload\n\n")
	return nil
}

// AblationXenFix evaluates the paper's stated future work: Xen checkpoint
// images that preserve page order (and keep per-page metadata stable)
// become dedup-friendly again.
func AblationXenFix(cfg Config) error {
	cfg = cfg.withDefaults()
	size := cfg.scaled(1_024_800_000)
	if size < 16<<20 {
		size = 16 << 20
	}
	shuffled := workload.Xen(workload.XenParams{Seed: 31, Images: 4, Size: size})
	ordered := workload.Xen(workload.XenParams{Seed: 31, Images: 4, Size: size, PreserveOrder: true})

	fmt.Fprintf(cfg.Out, "Ablation: Xen page-order fix (%d x %d MB VM images)\n", 4, size>>20)
	fmt.Fprintf(cfg.Out, "%-28s %18s %18s\n", "heuristic", "shuffled (stock)", "ordered (fix)")
	for _, h := range []chunker.Chunker{
		chunker.Fixed{Size: 4 << 10},
		chunker.Fixed{Size: 256 << 10},
		chunker.ContentDefined{Window: 48, Bits: 13, Advance: 1, Rolling: true},
	} {
		s1 := chunker.EvalTrace(h, shuffled.Images)
		s2 := chunker.EvalTrace(h, ordered.Images)
		fmt.Fprintf(cfg.Out, "%-28s %17.1f%% %17.1f%%\n",
			h.Name(), 100*s1.SimilarityRatio(), 100*s2.SimilarityRatio())
	}
	fmt.Fprintf(cfg.Out, "takeaway: ordering pages (and stabilizing per-page metadata) restores the\n")
	fmt.Fprintf(cfg.Out, "similarity that stock Xen destroys (paper §V.E 'surprising result')\n\n")
	return nil
}

// AblationWritePriority measures foreground write bandwidth while the
// replication scheduler runs with and without write priority
// (paper §IV.A: "Creation of new files has priority over replication").
func AblationWritePriority(cfg Config) error {
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

	with, err := run(true)
	if err != nil {
		return err
	}
	without, err := run(false)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "Ablation: foreground ASB while replication runs (target r=3, %d MB files)\n", size>>20)
	fmt.Fprintf(cfg.Out, "%-28s %12.1f MB/s\n", "with write priority", with)
	fmt.Fprintf(cfg.Out, "%-28s %12.1f MB/s\n", "without write priority", without)
	fmt.Fprintf(cfg.Out, "note: replication copies move benefactor-to-benefactor, off the client's\n")
	fmt.Fprintf(cfg.Out, "links, so in this topology the interference the paper's priority rule\n")
	fmt.Fprintf(cfg.Out, "guards against is modest; the rule matters when donors' disks/links are\n")
	fmt.Fprintf(cfg.Out, "the shared bottleneck (narrower pools, busier donors)\n\n")
	return nil
}
