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
	"stdchk/internal/metrics"
	"stdchk/internal/proto"
	"stdchk/internal/workload"
)

// OpenLoad is the open-loop traffic experiment: Poisson checkpoint
// arrivals driven at a sweep of offered-load levels against a federated
// metadata plane over real sockets, reporting per-level latency
// percentiles (p50/p99/p999) instead of throughput alone. Open-loop
// means arrivals never wait for completions — latency is measured from
// each request's *scheduled* arrival time, so queueing delay a
// closed-loop driver would hide (coordinated omission) is charged to the
// server.
//
// The grid runs the full million-writer plane: clients share multiplexed
// session-tagged connections (RouterConfig.SharedConns), and managers
// run bounded admission queues that shed past the bound with typed
// retry-after errors the router honors. A final ablation re-drives the
// overload level against an unbounded-queue federation to show what the
// admission gate buys: bounded queue depth and a flat tail instead of
// unbounded growth.
func OpenLoad(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		managers    = 2
		benefactors = 8
		imageSize   = 64 << 10
		chunksPerCk = 32
		maxPending  = 128
	)
	chunkSize := int64(imageSize / chunksPerCk)
	levelDur := 400 * time.Millisecond * time.Duration(cfg.Runs)

	fmt.Fprintf(cfg.Out, "Open-loop traffic: Poisson checkpoint arrivals vs a %d-manager federation (mux'd conns, admission bound %d)\n",
		managers, maxPending)
	fmt.Fprintf(cfg.Out, "GOMAXPROCS=%d; latency measured from scheduled arrival (coordinated-omission-free)\n", runtime.GOMAXPROCS(0))

	grid, err := newOpenLoadGrid(managers, benefactors, maxPending)
	if err != nil {
		return err
	}
	defer grid.close()

	// Closed-loop calibration: the plane's approximate capacity in
	// checkpoints/s anchors the offered-load sweep so levels mean the
	// same thing on a laptop and a 32-core CI box.
	capacity, err := openLoadCapacity(grid.router, 250*time.Millisecond*time.Duration(cfg.Runs), 8, chunksPerCk, chunkSize)
	if err != nil {
		return fmt.Errorf("openload: calibrate: %w", err)
	}
	fmt.Fprintf(cfg.Out, "calibrated closed-loop capacity: ~%.0f checkpoints/s\n\n", capacity)

	type cell struct {
		Experiment string  `json:"experiment"`
		Variant    string  `json:"variant"`
		Offered    float64 `json:"offeredPerSec"`
		Achieved   float64 `json:"achievedPerSec"`
		P50Micros  int64   `json:"p50Micros"`
		P99Micros  int64   `json:"p99Micros"`
		P999Micros int64   `json:"p999Micros"`
		Completed  int64   `json:"completed"`
		ShedFailed int64   `json:"shedFailed"`
		Dropped    int64   `json:"dropped"`
		Shed       int64   `json:"shed"`
		ConnShed   int64   `json:"connShed"`
		PeakDepth  int64   `json:"peakQueueDepth"`
	}
	var cells []cell

	fmt.Fprintf(cfg.Out, "%-10s %10s %10s %10s %10s %10s %8s %8s %8s %10s\n",
		"load", "offered/s", "achvd/s", "p50", "p99", "p999", "shed", "connshed", "failed", "peakdepth")
	levels := []float64{0.25, 0.5, 0.75, 1.0, 1.5}
	for li, frac := range levels {
		rate := capacity * frac
		if rate < 20 {
			rate = 20
		}
		res, err := openLoadLevel(grid, li, rate, levelDur, chunksPerCk, chunkSize)
		if err != nil {
			return fmt.Errorf("openload level %.2fx: %w", frac, err)
		}
		fmt.Fprintf(cfg.Out, "%-10s %10.0f %10.0f %10v %10v %10v %8d %8d %8d %10d\n",
			fmt.Sprintf("%.2fx", frac), res.offered, res.achieved,
			res.p50.Round(10*time.Microsecond), res.p99.Round(10*time.Microsecond),
			res.p999.Round(10*time.Microsecond), res.shed, res.connShed, res.shedFailed, res.peakDepth)
		cells = append(cells, cell{
			Experiment: "openload", Variant: "admission", Offered: res.offered,
			Achieved: res.achieved, P50Micros: res.p50.Microseconds(),
			P99Micros: res.p99.Microseconds(), P999Micros: res.p999.Microseconds(),
			Completed: res.completed, ShedFailed: res.shedFailed, Dropped: res.dropped,
			Shed: res.shed, ConnShed: res.connShed, PeakDepth: res.peakDepth,
		})
	}
	fmt.Fprintf(cfg.Out, "\nunder overload the admission gate sheds with typed retry-after: peak queue depth stays ≤ %d by construction\n", maxPending)

	// Ablation: the same overload level against an UNBOUNDED queue. The
	// server accepts everything; queue depth (and therefore tail latency)
	// grows with the backlog instead of being bounded.
	grid.close()
	unbounded, err := newOpenLoadGrid(managers, benefactors, 0)
	if err != nil {
		return err
	}
	defer unbounded.close()
	overloadRate := capacity * 1.5
	if overloadRate < 30 {
		overloadRate = 30
	}
	ares, err := openLoadLevel(unbounded, len(levels), overloadRate, levelDur, chunksPerCk, chunkSize)
	if err != nil {
		return fmt.Errorf("openload ablation: %w", err)
	}
	fmt.Fprintf(cfg.Out, "\nablation at 1.50x offered load      %10s %10s %10s %8s %8s %8s %10s\n",
		"p50", "p99", "p999", "shed", "connshed", "failed", "peakdepth")
	bounded := cells[len(cells)-1]
	fmt.Fprintf(cfg.Out, "  admission (bound %4d)            %10v %10v %10v %8d %8d %8d %10d\n",
		maxPending, time.Duration(bounded.P50Micros)*time.Microsecond,
		time.Duration(bounded.P99Micros)*time.Microsecond,
		time.Duration(bounded.P999Micros)*time.Microsecond,
		bounded.Shed, bounded.ConnShed, bounded.ShedFailed, bounded.PeakDepth)
	fmt.Fprintf(cfg.Out, "  unbounded queue                   %10v %10v %10v %8d %8d %8d %10d\n",
		ares.p50.Round(10*time.Microsecond), ares.p99.Round(10*time.Microsecond),
		ares.p999.Round(10*time.Microsecond), ares.shed, ares.connShed, ares.shedFailed, ares.peakDepth)
	cells = append(cells, cell{
		Experiment: "openload", Variant: "unbounded", Offered: ares.offered,
		Achieved: ares.achieved, P50Micros: ares.p50.Microseconds(),
		P99Micros: ares.p99.Microseconds(), P999Micros: ares.p999.Microseconds(),
		Completed: ares.completed, ShedFailed: ares.shedFailed, Dropped: ares.dropped,
		Shed: ares.shed, ConnShed: ares.connShed, PeakDepth: ares.peakDepth,
	})
	fmt.Fprintln(cfg.Out)

	if cfg.JSON != nil {
		enc := json.NewEncoder(cfg.JSON)
		for _, c := range cells {
			if err := enc.Encode(c); err != nil {
				return fmt.Errorf("openload: json: %w", err)
			}
		}
	}
	return nil
}

// openLoadGrid is the traffic-plane fixture: a federation of managers
// with (optionally bounded) admission queues behind a shared-connection
// router, plus fake benefactor registrations so allocs have somewhere to
// stripe.
type openLoadGrid struct {
	mgrs   []*manager.Manager
	router *federation.Router
}

func newOpenLoadGrid(managers, benefactors, maxPending int) (*openLoadGrid, error) {
	mgrs, members, err := manager.NewFederation(managers, manager.Config{
		HeartbeatInterval:   time.Hour, // load cells outlive no heartbeats
		ReplicationInterval: time.Hour,
		PruneInterval:       time.Hour,
		SessionTTL:          time.Hour,
		MaxPendingOps:       maxPending,
	})
	if err != nil {
		return nil, err
	}
	g := &openLoadGrid{mgrs: mgrs}
	router, err := federation.NewRouter(federation.RouterConfig{
		Members:     members,
		SharedConns: true,
		// 2 mux'd conns per member carry the whole open-loop fleet —
		// the point of session multiplexing.
		PerMemberConns: 2,
	})
	if err != nil {
		g.close()
		return nil, err
	}
	g.router = router
	if _, err := router.MemberStats(); err != nil {
		g.close()
		return nil, fmt.Errorf("federation unhealthy at start: %w", err)
	}
	for i := 0; i < benefactors; i++ {
		req := proto.RegisterReq{
			ID:       core.NodeID(fmt.Sprintf("ol%02d:1", i)),
			Addr:     fmt.Sprintf("ol%02d:1", i),
			Capacity: 1 << 40,
			Free:     1 << 40,
		}
		if _, err := router.Register(req); err != nil {
			g.close()
			return nil, err
		}
	}
	return g, nil
}

func (g *openLoadGrid) close() {
	if g.router != nil {
		g.router.Close()
		g.router = nil
	}
	for _, m := range g.mgrs {
		m.Close()
	}
	g.mgrs = nil
}

// mergedStats folds the grid's per-member counters.
func (g *openLoadGrid) mergedStats() proto.ManagerStats {
	all := make([]proto.ManagerStats, len(g.mgrs))
	for i, m := range g.mgrs {
		all[i] = m.Stats()
	}
	return federation.MergeStats(all)
}

// openLoadCapacity estimates the plane's closed-loop checkpoint
// throughput with a small worker fleet — the anchor for offered-load
// fractions.
func openLoadCapacity(router *federation.Router, dur time.Duration, workers, chunksPerCk int, chunkSize int64) (float64, error) {
	var ops atomic.Int64
	var errOnce sync.Once
	var loadErr error
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := 0; time.Now().Before(deadline); t++ {
				name := fmt.Sprintf("olcal.n%d.t%d", w, t)
				_, err := driveRouterCheckpoint(router, name, int64(w), t, chunksPerCk, chunkSize, w%2 == 1)
				if err != nil {
					errOnce.Do(func() { loadErr = err })
					return
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	if loadErr != nil {
		return 0, loadErr
	}
	elapsed := time.Since(start)
	return float64(ops.Load()) / elapsed.Seconds(), nil
}

// openLoadMaxOutstanding bounds concurrently in-flight open-loop
// requests so an overloaded run cannot spawn unbounded goroutines.
// Arrivals past the bound are counted as dropped and reported — never
// silently discarded from the statistics.
const openLoadMaxOutstanding = 512

type openLoadResult struct {
	offered, achieved float64
	p50, p99, p999    time.Duration
	completed         int64
	shedFailed        int64 // exhausted retry-after budget (typed shed)
	dropped           int64 // arrivals past the outstanding bound
	shed, connShed    int64 // server-side admission counters (delta)
	peakDepth         int64
	otherErrors       int64
}

// openLoadLevel drives one offered-load level: Poisson arrivals at
// `rate` checkpoints/s for roughly dur, latency measured from each
// arrival's scheduled time.
func openLoadLevel(g *openLoadGrid, level int, rate float64, dur time.Duration, chunksPerCk int, chunkSize int64) (openLoadResult, error) {
	n := int(rate * dur.Seconds())
	if n < 8 {
		n = 8
	}
	sched := workload.PoissonSchedule(int64(4242+level), rate, n)
	before := g.mergedStats().Admission

	var hist metrics.LatencyHistogram
	var shedFailed, dropped, otherErrors atomic.Int64
	sem := make(chan struct{}, openLoadMaxOutstanding)
	start := time.Now()
	var wg sync.WaitGroup
	for i, off := range sched {
		if d := time.Until(start.Add(off)); d > 0 {
			time.Sleep(d)
		}
		select {
		case sem <- struct{}{}:
		default:
			dropped.Add(1)
			continue
		}
		wg.Add(1)
		go func(i int, scheduled time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			name := fmt.Sprintf("ol.l%d.n%d", level, i)
			_, err := driveRouterCheckpoint(g.router, name, int64(i), 0, chunksPerCk, chunkSize, i%2 == 1)
			if err != nil {
				if core.IsRetryAfter(err) {
					shedFailed.Add(1)
				} else {
					otherErrors.Add(1)
				}
				return
			}
			hist.Observe(time.Since(scheduled))
		}(i, start.Add(off))
	}
	wg.Wait()
	elapsed := time.Since(start)

	after := g.mergedStats().Admission
	count, _, buckets := hist.Snapshot()
	res := openLoadResult{
		offered:     float64(n) / elapsed.Seconds(),
		achieved:    float64(count) / elapsed.Seconds(),
		p50:         metrics.Percentile(buckets, 0.50),
		p99:         metrics.Percentile(buckets, 0.99),
		p999:        metrics.Percentile(buckets, 0.999),
		completed:   count,
		shedFailed:  shedFailed.Load(),
		dropped:     dropped.Load(),
		shed:        after.Shed - before.Shed,
		connShed:    after.ConnShed - before.ConnShed,
		peakDepth:   after.PeakQueueDepth,
		otherErrors: otherErrors.Load(),
	}
	if res.otherErrors > 0 {
		return res, fmt.Errorf("%d non-shed errors during open-loop level %d", res.otherErrors, level)
	}
	return res, nil
}
