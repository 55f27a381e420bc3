package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"stdchk/internal/core"
	"stdchk/internal/federation"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
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
func FedLoad(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	const (
		imageSize   = 64 << 10
		chunksPerCk = 32
		benefactors = 16
	)
	managersSweep := []int{1, 2, 4}
	writersSweep := []int{16, 64}
	cellDur := 200 * time.Millisecond * time.Duration(cfg.Runs)

	t := Table{
		Name:    "fedload",
		Title:   fmt.Sprintf("Federated metadata plane load (§V.E extension): %d-chunk checkpoints of %d KB over real sockets", chunksPerCk, imageSize>>10),
		Keys:    []string{"managers", "writers"},
		Columns: []Column{col("tps", "1/s", 0), col("ckpts/s", "1/s", 0)},
	}
	// The member transaction spread: one column per member of the
	// largest federation, "-" past a row's member count.
	maxManagers := managersSweep[len(managersSweep)-1]
	for i := 0; i < maxManagers; i++ {
		t.Columns = append(t.Columns, col(fmt.Sprintf("member %d txns", i), "", 0))
	}
	t.note("GOMAXPROCS=%d (aggregate scaling needs enough CPUs to run the members in parallel)", runtime.GOMAXPROCS(0))
	tpsAt := make(map[[2]int]float64)
	for _, w := range writersSweep {
		for _, n := range managersSweep {
			tps, ckps, memberTxns, err := fedLoadCell(n, w, cellDur, imageSize, chunksPerCk, benefactors)
			if err != nil {
				return nil, fmt.Errorf("fedload %dx%d: %w", n, w, err)
			}
			cells := []float64{tps, ckps}
			for i := 0; i < maxManagers; i++ {
				v := math.NaN()
				if i < len(memberTxns) {
					v = float64(memberTxns[i])
				}
				cells = append(cells, v)
			}
			t.add(labels(n, w), cells...)
			tpsAt[[2]int{n, w}] = tps
		}
	}
	scaling := Table{
		Name:    "scaling",
		Title:   "Aggregate tps vs one manager",
		Keys:    []string{"writers"},
		Columns: []Column{col("2 managers", "x", 2), col("4 managers", "x", 2)},
	}
	for _, w := range writersSweep {
		if base := tpsAt[[2]int{1, w}]; base > 0 {
			scaling.add(labels(w), tpsAt[[2]int{2, w}]/base, tpsAt[[2]int{4, w}]/base)
		}
	}
	scaling.note("paper: one manager sustains well over 1,000 transactions per second (§V.E); federation multiplies managers")
	return []Table{t, scaling}, nil
}

// fedLoadCell runs one (managers, writers) configuration for roughly dur:
// a real federation over loopback TCP with a shared partition router.
func fedLoadCell(managers, writers int, dur time.Duration, imageSize int64, chunksPerCk, benefactors int) (tps, ckps float64, memberTxns []int64, err error) {
	mgrs, members, err := manager.NewFederation(managers, manager.Config{
		HeartbeatInterval:   time.Hour, // load cells outlive no heartbeats
		ReplicationInterval: time.Hour,
		PruneInterval:       time.Hour,
		SessionTTL:          time.Hour,
	})
	if err != nil {
		return 0, 0, nil, err
	}
	defer func() {
		for _, m := range mgrs {
			m.Close()
		}
	}()

	router, err := federation.NewRouter(federation.RouterConfig{Members: members})
	if err != nil {
		return 0, 0, nil, err
	}
	defer router.Close()
	if _, err := router.MemberStats(); err != nil {
		return 0, 0, nil, fmt.Errorf("federation unhealthy at start: %w", err)
	}
	for i := 0; i < benefactors; i++ {
		req := proto.RegisterReq{
			ID:       core.NodeID(fmt.Sprintf("fd%02d:1", i)),
			Addr:     fmt.Sprintf("fd%02d:1", i),
			Capacity: 1 << 40,
			Free:     1 << 40,
		}
		if _, err := router.Register(req); err != nil {
			return 0, 0, nil, err
		}
	}

	if tps, ckps, err = driveWriters(router.Call, writers, dur, imageSize, chunksPerCk); err != nil {
		return 0, 0, nil, err
	}
	for _, m := range mgrs {
		memberTxns = append(memberTxns, m.Stats().Transactions)
	}
	return tps, ckps, memberTxns, nil
}
