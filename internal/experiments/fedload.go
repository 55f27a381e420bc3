package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
	"stdchk/internal/workload"
)

// FedLoad extends the §V.E manager-load sweep across a federated metadata
// plane: the same many-small-writers workload (workload.ManyWriters, the
// same five metadata RPCs per checkpoint as managerload) driven through
// the client-side partition router against 1, 2 and 4 manager processes
// over real loopback sockets. Aggregate transactions per second should
// scale with the member count once the single manager saturates — the
// federation's reason to exist — with the usual caveat that a 1-CPU dev
// box time-slices the members instead of running them in parallel, so the
// scaling shows there only as reduced per-member contention.
//
// Unlike managerload (in-process Manager.Invoke, isolating the metadata
// plane), fedload pays the full socket stack: wire framing, connection
// pools, and the router's owner lookup on every dataset-scoped RPC.
//
// Like managerload, the checkpoint shape (64 KB, 32 chunks) and the sweep
// sizes are fixed so runs stay comparable; Config.Scale has no effect
// here and only Runs stretches the per-cell duration.
func FedLoad(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		imageSize   = 64 << 10
		chunksPerCk = 32
		benefactors = 16
	)
	managersSweep := []int{1, 2, 4}
	writersSweep := []int{16, 64}
	cellDur := 200 * time.Millisecond * time.Duration(cfg.Runs)

	type cell struct {
		Experiment string  `json:"experiment"`
		Managers   int     `json:"managers"`
		Writers    int     `json:"writers"`
		TPS        float64 `json:"tps"`
		Checkpoint float64 `json:"checkpointsPerSec"`
		MemberTxns []int64 `json:"memberTransactions"`
	}

	fmt.Fprintf(cfg.Out, "Federated metadata plane load (§V.E extension): %d-chunk checkpoints of %d KB over real sockets\n",
		chunksPerCk, imageSize>>10)
	fmt.Fprintf(cfg.Out, "GOMAXPROCS=%d (aggregate scaling needs enough CPUs to run the members in parallel)\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(cfg.Out, "%-9s %8s %12s %14s %22s\n", "managers", "writers", "tps", "ckpts/s", "member txn spread")

	var cells []cell
	tpsAt := make(map[[2]int]float64)
	for _, w := range writersSweep {
		for _, n := range managersSweep {
			res, err := fedLoadCell(n, w, cellDur, imageSize, chunksPerCk, benefactors)
			if err != nil {
				return fmt.Errorf("fedload %dx%d: %w", n, w, err)
			}
			fmt.Fprintf(cfg.Out, "%-9d %8d %12.0f %14.0f %22s\n",
				n, w, res.tps, res.ckps, fmtSpread(res.memberTxns))
			tpsAt[[2]int{n, w}] = res.tps
			cells = append(cells, cell{
				Experiment: "fedload", Managers: n, Writers: w,
				TPS: res.tps, Checkpoint: res.ckps, MemberTxns: res.memberTxns,
			})
		}
	}
	for _, w := range writersSweep {
		base := tpsAt[[2]int{1, w}]
		if base > 0 {
			fmt.Fprintf(cfg.Out, "aggregate tps at %d writers: %.2fx (2 managers), %.2fx (4 managers) vs one manager\n",
				w, tpsAt[[2]int{2, w}]/base, tpsAt[[2]int{4, w}]/base)
		}
	}
	fmt.Fprintf(cfg.Out, "paper: one manager sustains well over 1,000 transactions per second (§V.E); federation multiplies managers\n\n")

	if cfg.JSON != nil {
		enc := json.NewEncoder(cfg.JSON)
		for _, c := range cells {
			if err := enc.Encode(c); err != nil {
				return fmt.Errorf("fedload: json: %w", err)
			}
		}
	}
	return nil
}

func fmtSpread(txns []int64) string {
	s := ""
	for i, t := range txns {
		if i > 0 {
			s += "/"
		}
		s += fmt.Sprintf("%d", t)
	}
	return s
}

type fedLoadResult struct {
	tps        float64
	ckps       float64
	memberTxns []int64
}

// fedLoadCell runs one (managers, writers) configuration for roughly dur:
// a real federation over loopback TCP with a shared partition router.
func fedLoadCell(managers, writers int, dur time.Duration, imageSize int64, chunksPerCk, benefactors int) (fedLoadResult, error) {
	mgrs, members, err := manager.NewFederation(managers, manager.Config{
		HeartbeatInterval:   time.Hour, // load cells outlive no heartbeats
		ReplicationInterval: time.Hour,
		PruneInterval:       time.Hour,
		SessionTTL:          time.Hour,
	})
	if err != nil {
		return fedLoadResult{}, err
	}
	defer func() {
		for _, m := range mgrs {
			m.Close()
		}
	}()

	router, err := federation.NewRouter(federation.RouterConfig{Members: members})
	if err != nil {
		return fedLoadResult{}, err
	}
	defer router.Close()
	if _, err := router.MemberStats(); err != nil {
		return fedLoadResult{}, fmt.Errorf("federation unhealthy at start: %w", err)
	}
	for i := 0; i < benefactors; i++ {
		req := proto.RegisterReq{
			ID:       core.NodeID(fmt.Sprintf("fd%02d:1", i)),
			Addr:     fmt.Sprintf("fd%02d:1", i),
			Capacity: 1 << 40,
			Free:     1 << 40,
		}
		if _, err := router.Register(req); err != nil {
			return fedLoadResult{}, err
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
				n, err := manager.DriveCheckpoint(router.Call, spec.FileName(t), spec.Seed, t, chunksPerCk, chunkSize, spec.CbCH)
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
		return fedLoadResult{}, loadErr
	}
	memberTxns := make([]int64, len(mgrs))
	for i, m := range mgrs {
		memberTxns[i] = m.Stats().Transactions
	}
	total := float64(ops.Load())
	return fedLoadResult{
		tps:        total / elapsed.Seconds(),
		ckps:       total / manager.DriveCheckpointOps / elapsed.Seconds(),
		memberTxns: memberTxns,
	}, nil
}
