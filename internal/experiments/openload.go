package experiments

import (
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
func OpenLoad(cfg Config) ([]Table, error) {
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

	grid, err := newOpenLoadGrid(managers, benefactors, maxPending)
	if err != nil {
		return nil, err
	}
	defer grid.close()

	// Closed-loop calibration: the plane's approximate capacity in
	// checkpoints/s anchors the offered-load sweep so levels mean the
	// same thing on a laptop and a 32-core CI box.
	// Eight closed-loop writers, the anchor for offered-load fractions.
	_, capacity, err := driveWriters(grid.router.Call, 8, 250*time.Millisecond*time.Duration(cfg.Runs), imageSize, chunksPerCk)
	if err != nil {
		return nil, fmt.Errorf("openload: calibrate: %w", err)
	}
	calib := Table{
		Name:    "capacity",
		Title:   fmt.Sprintf("Open-loop traffic: Poisson checkpoint arrivals vs a %d-manager federation (mux'd conns, admission bound %d)", managers, maxPending),
		Keys:    []string{"calibration"},
		Columns: []Column{col("capacity", "ckpt/s", 0)},
	}
	calib.add(labels("closed-loop"), capacity)
	calib.note("GOMAXPROCS=%d; latency measured from scheduled arrival (coordinated-omission-free)", runtime.GOMAXPROCS(0))

	sweep := Table{Name: "levels", Title: "Latency vs offered load", Keys: []string{"load"}, Columns: openLoadColumns}
	levels := []float64{0.25, 0.5, 0.75, 1.0, 1.5}
	var last openLoadResult
	for li, frac := range levels {
		rate := capacity * frac
		if rate < 20 {
			rate = 20
		}
		last, err = openLoadLevel(grid, li, rate, levelDur, chunksPerCk, chunkSize)
		if err != nil {
			return nil, fmt.Errorf("openload level %.2fx: %w", frac, err)
		}
		sweep.add(labels(fmt.Sprintf("%.2fx", frac)), last.cells()...)
	}
	sweep.note("under overload the admission gate sheds with typed retry-after: peak queue depth stays ≤ %d by construction", maxPending)

	// Ablation: the same overload level against an UNBOUNDED queue. The
	// server accepts everything; queue depth (and therefore tail latency)
	// grows with the backlog instead of being bounded.
	grid.close()
	unbounded, err := newOpenLoadGrid(managers, benefactors, 0)
	if err != nil {
		return nil, err
	}
	defer unbounded.close()
	overloadRate := capacity * 1.5
	if overloadRate < 30 {
		overloadRate = 30
	}
	ares, err := openLoadLevel(unbounded, len(levels), overloadRate, levelDur, chunksPerCk, chunkSize)
	if err != nil {
		return nil, fmt.Errorf("openload ablation: %w", err)
	}
	ablation := Table{Name: "ablation", Title: "ablation at 1.50x offered load", Keys: []string{"variant"}, Columns: openLoadColumns}
	ablation.add(labels(fmt.Sprintf("admission (bound %d)", maxPending)), last.cells()...)
	ablation.add(labels("unbounded queue"), ares.cells()...)
	return []Table{calib, sweep, ablation}, nil
}

// openLoadColumns are the columns of one offered-load level.
var openLoadColumns = []Column{
	col("offered", "1/s", 0), col("achieved", "1/s", 0),
	col("p50", "µs", 0), col("p99", "µs", 0), col("p999", "µs", 0),
	col("completed", "", 0), col("shed", "", 0), col("connshed", "", 0),
	col("failed", "", 0), col("dropped", "", 0), col("peakdepth", "", 0),
}

// cells returns a level's row in openLoadColumns order.
func (r openLoadResult) cells() []float64 {
	return []float64{
		r.offered, r.achieved,
		float64(r.p50.Microseconds()), float64(r.p99.Microseconds()), float64(r.p999.Microseconds()),
		float64(r.completed), float64(r.shed), float64(r.connShed),
		float64(r.shedFailed), float64(r.dropped), float64(r.peakDepth),
	}
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
	before := g.mergedStats().Counters

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
			_, err := manager.DriveCheckpoint(g.router.Call, name, int64(i), 0, chunksPerCk, chunkSize, i%2 == 1)
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

	after := g.mergedStats().Counters
	lat := hist.Snapshot()
	count, buckets := lat.Count, lat.Buckets
	res := openLoadResult{
		offered:     float64(n) / elapsed.Seconds(),
		achieved:    float64(count) / elapsed.Seconds(),
		p50:         metrics.Percentile(buckets, 0.50),
		p99:         metrics.Percentile(buckets, 0.99),
		p999:        metrics.Percentile(buckets, 0.999),
		completed:   count,
		shedFailed:  shedFailed.Load(),
		dropped:     dropped.Load(),
		shed:        after[proto.CtrShed].Value - before[proto.CtrShed].Value,
		connShed:    after[proto.CtrConnShed].Value - before[proto.CtrConnShed].Value,
		peakDepth:   after[proto.CtrPeakQueueDepth].Value,
		otherErrors: otherErrors.Load(),
	}
	if res.otherErrors > 0 {
		return res, fmt.Errorf("%d non-shed errors during open-loop level %d", res.otherErrors, level)
	}
	return res, nil
}
