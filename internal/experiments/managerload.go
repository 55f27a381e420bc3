package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/workload"
)

// ManagerLoad reproduces the §V.E manager-throughput claim ("the manager
// is able to sustain well over 1,000 transactions per second") and
// measures how it scales with concurrent writers — the regime the paper
// never pushed: hundreds of small checkpointing clients hitting the
// metadata plane at once (workload.ManyWriters).
//
// Three manager variants run the same sweep on the same machine (the
// single-mutex catalog and the inline journal writer they replaced are
// historical rows in EXPERIMENTS.md):
//
//   - striped: the lock-striped catalog + chunk index, unjournaled;
//   - striped+jasync: journaling through the ordered async writer — the
//     dataset stripe's critical section only takes an order ticket;
//   - striped+jfsync: the async writer with group-commit fsync — every
//     commit blocks until its batch is on disk, but concurrent commits
//     share one fsync, so the jfsync/jasync ratio prices crash-proof
//     durability and the records-per-fsync column shows the amortization.
//
// Writers drive the manager's real handler path in-process
// (Manager.Invoke) so the measurement isolates the metadata plane — the
// paper's §V.E measurement likewise counted manager transactions, not
// data transfer. Each checkpoint costs five metadata RPCs: alloc, extend,
// a batched dedup probe, commit (half the chunks shared copy-on-write
// after the first version), and a chunk-map fetch.
func ManagerLoad(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		imageSize   = 64 << 10
		chunksPerCk = 32
		benefactors = 16
	)
	writersSweep := []int{1, 4, 16, 64, 256}
	cellDur := 200 * time.Millisecond * time.Duration(cfg.Runs)

	type cell struct {
		Variant    string  `json:"variant"`
		Writers    int     `json:"writers"`
		Journal    string  `json:"journal,omitempty"`
		TPS        float64 `json:"tps"`
		Checkpoint float64 `json:"checkpointsPerSec"`
		Contended  int64   `json:"stripeContention"`
		StripeOps  int64   `json:"stripeOps"`
		// Group-commit accounting (journaled variants): fsync syscalls and
		// the records they covered — their ratio is the amortization that
		// makes durable commits affordable under concurrency.
		JournalFsyncs   int64 `json:"journalFsyncs,omitempty"`
		JournalBatchLen int64 `json:"journalBatchLen,omitempty"`
	}
	variants := []struct {
		name    string
		journal string // "" | "async" | "fsync"
	}{
		{"striped", ""},
		{"striped+jasync", "async"},
		// Crash-durable commits through the group-commit fsync path: each
		// commit waits for its batch's fsync, concurrent commits share it.
		{"striped+jfsync", "fsync"},
	}

	fmt.Fprintf(cfg.Out, "Manager metadata-plane load (§V.E): %d-chunk checkpoints of %d KB, 5 metadata RPCs per checkpoint\n",
		chunksPerCk, imageSize>>10)
	fmt.Fprintf(cfg.Out, "GOMAXPROCS=%d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(cfg.Out, "%-14s %8s %12s %14s %16s\n", "variant", "writers", "tps", "ckpts/s", "lock contention")

	var cells []cell
	tpsAt := make(map[string]map[int]float64)
	for _, v := range variants {
		tpsAt[v.name] = make(map[int]float64)
		for _, w := range writersSweep {
			c, err := managerLoadCell(v.journal, w, cellDur, imageSize, chunksPerCk, benefactors)
			if err != nil {
				return fmt.Errorf("managerload %s/%d: %w", v.name, w, err)
			}
			contPct := 0.0
			if c.stripeOps > 0 {
				contPct = 100 * float64(c.contended) / float64(c.stripeOps)
			}
			fmt.Fprintf(cfg.Out, "%-14s %8d %12.0f %14.0f %11.1f%% (%d/%d)\n",
				v.name, w, c.tps, c.ckps, contPct, c.contended, c.stripeOps)
			tpsAt[v.name][w] = c.tps
			cells = append(cells, cell{
				Variant: v.name, Writers: w, Journal: v.journal,
				TPS: c.tps, Checkpoint: c.ckps,
				Contended: c.contended, StripeOps: c.stripeOps,
				JournalFsyncs: c.fsyncs, JournalBatchLen: c.batchLen,
			})
		}
	}

	ratio := func(num, den string, w int) float64 {
		if tpsAt[den][w] <= 0 {
			return 0
		}
		return tpsAt[num][w] / tpsAt[den][w]
	}
	fmt.Fprintf(cfg.Out, "journaled/unjournaled tps: %.2fx at 64 writers, %.2fx at 256 writers (what the ordered async writer costs)\n",
		ratio("striped+jasync", "striped", 64), ratio("striped+jasync", "striped", 256))
	var fsAmort float64
	for _, c := range cells {
		if c.Variant == "striped+jfsync" && c.Writers == writersSweep[len(writersSweep)-1] && c.JournalFsyncs > 0 {
			fsAmort = float64(c.JournalBatchLen) / float64(c.JournalFsyncs)
		}
	}
	fmt.Fprintf(cfg.Out, "group-commit fsync tps: %.2fx of relaxed async at 256 writers, %.1f records amortized per fsync\n",
		ratio("striped+jfsync", "striped+jasync", 256), fsAmort)
	fmt.Fprintf(cfg.Out, "paper: manager sustains well over 1,000 transactions per second (§V.E)\n\n")

	if cfg.JSON != nil {
		enc := json.NewEncoder(cfg.JSON)
		for _, c := range cells {
			if err := enc.Encode(c); err != nil {
				return fmt.Errorf("managerload: json: %w", err)
			}
		}
	}
	return nil
}

type loadResult struct {
	tps       float64
	ckps      float64
	contended int64
	stripeOps int64
	fsyncs    int64
	batchLen  int64
}

// managerLoadCell runs one (journal-mode, writers) configuration for
// roughly dur and returns the measured rates. journal "" runs unjournaled;
// "async"/"fsync" journal to a fresh temp file (fsync = group-commit
// durability).
func managerLoadCell(journal string, writers int, dur time.Duration, imageSize int64, chunksPerCk, benefactors int) (loadResult, error) {
	mcfg := manager.Config{
		HeartbeatInterval:   time.Hour, // load cells outlive no heartbeats
		ReplicationInterval: time.Hour,
		PruneInterval:       time.Hour,
		SessionTTL:          time.Hour,
	}
	if journal != "" {
		dir, err := os.MkdirTemp("", "stdchk-managerload")
		if err != nil {
			return loadResult{}, err
		}
		defer os.RemoveAll(dir)
		mcfg.JournalPath = filepath.Join(dir, "journal")
		mcfg.FsyncJournal = journal == "fsync"
	}
	m, err := manager.New(mcfg)
	if err != nil {
		return loadResult{}, err
	}
	defer m.Close()
	for i := 0; i < benefactors; i++ {
		req := proto.RegisterReq{
			ID:       core.NodeID(fmt.Sprintf("ld%02d:1", i)),
			Addr:     fmt.Sprintf("ld%02d:1", i),
			Capacity: 1 << 40,
			Free:     1 << 40,
		}
		if err := m.Invoke(proto.MRegister, req, nil); err != nil {
			return loadResult{}, err
		}
	}

	specs := workload.ManyWriters(42, writers, 0, imageSize)
	chunkSize := imageSize / int64(chunksPerCk)
	var ops atomic.Int64
	var errOnce sync.Once
	var loadErr error
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, spec := range specs {
		wg.Add(1)
		go func(spec workload.WriterSpec) {
			defer wg.Done()
			for t := 0; time.Now().Before(deadline); t++ {
				// The identical driver BenchmarkManagerOps runs, so the
				// CI-gated benchmark and this sweep measure one workload.
				n, err := manager.DriveCheckpoint(m, spec.FileName(t), spec.Seed, t, chunksPerCk, chunkSize, spec.CbCH)
				ops.Add(n)
				if err != nil {
					errOnce.Do(func() { loadErr = err })
					return
				}
			}
		}(spec)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if loadErr != nil {
		return loadResult{}, loadErr
	}
	stats := m.Stats()
	total := float64(ops.Load())
	res := loadResult{
		tps:       total / elapsed.Seconds(),
		ckps:      total / manager.DriveCheckpointOps / elapsed.Seconds(),
		contended: stats.StripeContention,
		stripeOps: stats.StripeOps,
		fsyncs:    stats.JournalFsyncs,
		batchLen:  stats.JournalBatchLen,
	}
	return res, nil
}
