package experiments

import (
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
func ManagerLoad(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	const (
		imageSize   = 64 << 10
		chunksPerCk = 32
		benefactors = 16
	)
	writersSweep := []int{1, 4, 16, 64, 256}
	cellDur := 200 * time.Millisecond * time.Duration(cfg.Runs)

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

	t := Table{
		Name:  "load",
		Title: fmt.Sprintf("Manager metadata-plane load (§V.E): %d-chunk checkpoints of %d KB, 5 metadata RPCs per checkpoint", chunksPerCk, imageSize>>10),
		Keys:  []string{"variant", "writers"},
		Columns: []Column{
			col("tps", "1/s", 0), col("ckpts/s", "1/s", 0), col("lock contention", "%", 1),
			col("contended", "", 0), col("stripe ops", "", 0),
			// Group-commit accounting (journaled variants): fsync syscalls
			// and the records they covered — their ratio is the
			// amortization that makes durable commits affordable under
			// concurrency.
			col("journal fsyncs", "", 0), col("journal records", "", 0),
		},
	}
	t.note("GOMAXPROCS=%d", runtime.GOMAXPROCS(0))
	for _, v := range variants {
		for _, w := range writersSweep {
			cells, err := managerLoadCell(v.journal, w, cellDur, imageSize, chunksPerCk, benefactors)
			if err != nil {
				return nil, fmt.Errorf("managerload %s/%d: %w", v.name, w, err)
			}
			t.add(labels(v.name, w), cells...)
		}
	}

	ratio := func(num, den string, w int) float64 {
		n, _ := t.cell(fmt.Sprintf("%s/%d", num, w), "tps")
		d, _ := t.cell(fmt.Sprintf("%s/%d", den, w), "tps")
		if d <= 0 {
			return 0
		}
		return n / d
	}
	top := writersSweep[len(writersSweep)-1]
	var perFsync float64
	if fsyncs, _ := t.cell(fmt.Sprintf("striped+jfsync/%d", top), "journal fsyncs"); fsyncs > 0 {
		records, _ := t.cell(fmt.Sprintf("striped+jfsync/%d", top), "journal records")
		perFsync = records / fsyncs
	}
	ratios := Table{
		Name:    "ratios",
		Title:   "Manager load ratios",
		Keys:    []string{"measure", "writers"},
		Columns: []Column{col("value", "", 2)},
	}
	ratios.add(labels("journaled/unjournaled tps", 64), ratio("striped+jasync", "striped", 64))
	ratios.add(labels("journaled/unjournaled tps", top), ratio("striped+jasync", "striped", top))
	ratios.add(labels("group-commit fsync/relaxed async tps", top), ratio("striped+jfsync", "striped+jasync", top))
	ratios.add(labels("records amortized per fsync", top), perFsync)
	ratios.note("journaled/unjournaled is what the ordered async writer costs")
	ratios.note("paper: manager sustains well over 1,000 transactions per second (§V.E)")
	return []Table{t, ratios}, nil
}

// managerLoadCell runs one (journal-mode, writers) configuration for
// roughly dur and returns its row of the load table. journal "" runs
// unjournaled; "async"/"fsync" journal to a fresh temp file (fsync =
// group-commit durability).
func managerLoadCell(journal string, writers int, dur time.Duration, imageSize int64, chunksPerCk, benefactors int) ([]float64, error) {
	mcfg := manager.Config{
		HeartbeatInterval:   time.Hour, // load cells outlive no heartbeats
		ReplicationInterval: time.Hour,
		PruneInterval:       time.Hour,
		SessionTTL:          time.Hour,
	}
	if journal != "" {
		dir, err := os.MkdirTemp("", "stdchk-managerload")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		mcfg.JournalPath = filepath.Join(dir, "journal")
		mcfg.FsyncJournal = journal == "fsync"
	}
	m, err := manager.New(mcfg)
	if err != nil {
		return nil, err
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
			return nil, err
		}
	}

	invoke := func(op, _ string, req, resp interface{}) error { return m.Invoke(op, req, resp) }
	tps, ckps, err := driveWriters(invoke, writers, dur, imageSize, chunksPerCk)
	if err != nil {
		return nil, err
	}
	stats := m.Stats()
	contPct := 0.0
	if stats.StripeOps > 0 {
		contPct = 100 * float64(stats.StripeContention) / float64(stats.StripeOps)
	}
	return []float64{tps, ckps, contPct, float64(stats.StripeContention), float64(stats.StripeOps),
		float64(stats.JournalFsyncs), float64(stats.JournalBatchLen)}, nil
}

// driveWriters runs one checkpoint loop per writer (workload.ManyWriters)
// through call for about dur, each checkpoint chunksPerCk chunks of an
// imageSize image, and returns metadata RPCs and checkpoints per second.
// It is the driver BenchmarkManagerOps runs, so the CI-gated benchmark
// and the load sweeps measure one workload.
func driveWriters(call func(op, name string, req, resp interface{}) error, writers int, dur time.Duration, imageSize int64, chunksPerCk int) (tps, ckps float64, err error) {
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
				n, err := manager.DriveCheckpoint(call, spec.FileName(t), spec.Seed, t, chunksPerCk, chunkSize, spec.CbCH)
				ops.Add(n)
				if err != nil {
					errOnce.Do(func() { loadErr = err })
					return
				}
			}
		}(spec)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	total := float64(ops.Load())
	return total / secs, total / manager.DriveCheckpointOps / secs, loadErr
}
