// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment is a named runner that drives the real
// stdchk stack — manager, benefactors, clients over loopback TCP — with
// device models calibrated to the paper's testbed, and returns its result
// tables (results.go) in the paper's layout, with the paper's reported
// values in the footers.
//
// Sizes are scaled down by Config.Scale (default 64: the paper's 1 GB
// test file becomes 16 MB) so a full sweep finishes in minutes; bandwidth
// calibrations are NOT scaled, so every bottleneck ratio — and therefore
// the shape of each result — is preserved. EXPERIMENTS.md records
// paper-vs-measured for every row.
package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
	"stdchk/internal/metrics"
)

// Config parameterizes a run.
type Config struct {
	// Scale divides the paper's data sizes (1 = full size, 64 default).
	Scale int64
	// Runs is the number of repetitions per configuration (the paper
	// averages 20; 3 keeps the full sweep quick).
	Runs int
	// FsyncJournal runs journaled experiments with group-commit fsync
	// (stdchk-bench -fsync-journal): commits wait for their batch's fsync,
	// concurrent commits share it. The managerload sweep always measures
	// the fsync variant side by side regardless of this flag.
	FsyncJournal bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 64
	}
	if c.Runs <= 0 {
		c.Runs = 3
	}
	return c
}

// scaled converts a paper-sized byte count to this run's size.
func (c Config) scaled(paperBytes int64) int64 {
	v := paperBytes / c.Scale
	if v < 64<<10 {
		v = 64 << 10
	}
	return v
}

// chunkSize picks the striping chunk size for the scale: the paper uses
// 1 MB chunks on 1 GB files (1024 chunks); keeping at least tens of chunks
// per file preserves the striping pipeline behaviour.
func (c Config) chunkSize() int64 {
	cs := (1 << 20) * 16 / c.Scale
	if cs < 64<<10 {
		return 64 << 10
	}
	if cs > 1<<20 {
		return 1 << 20
	}
	return cs
}

// Runner is one experiment.
type Runner struct {
	// Name is the CLI identifier, e.g. "table1", "fig2".
	Name string
	// Title is the paper artifact it regenerates.
	Title string
	// Ablation marks the design-choice benches that the paper argues
	// qualitatively, plus its stated future work; stdchk-bench runs them
	// with -ablations rather than in -exp all.
	Ablation bool
	// Run executes the experiment and returns its tables.
	Run func(Config) ([]Table, error)
}

// All returns the experiment registry: the paper's evaluation in paper
// order, then the ablations.
func All() []Runner {
	return []Runner{
		{Name: "table1", Title: "Table 1: time to write 1 GB (local vs FUSE vs /stdchk/null)", Run: Table1},
		{Name: "fig2", Title: "Figure 2: observed application bandwidth vs stripe width", Run: Fig2},
		{Name: "fig3", Title: "Figure 3: achieved storage bandwidth vs stripe width", Run: Fig3},
		{Name: "fig4", Title: "Figure 4: sliding-window OAB vs buffer size", Run: Fig4},
		{Name: "fig5", Title: "Figure 5: sliding-window ASB vs buffer size", Run: Fig5},
		{Name: "fig6", Title: "Figure 6: 10 Gbps client OAB/ASB", Run: Fig6},
		{Name: "table2", Title: "Table 2: checkpoint trace characteristics", Run: Table2},
		{Name: "table3", Title: "Table 3: similarity heuristics comparison", Run: Table3},
		{Name: "table3live", Title: "Table 3 (live): similarity re-measured through the wire path", Run: Table3Live},
		{Name: "table4", Title: "Table 4: CbCH no-overlap parameter sweep", Run: Table4},
		{Name: "fig7", Title: "Figure 7: sliding window with/without FsCH", Run: Fig7},
		{Name: "fig8", Title: "Figure 8: aggregate throughput under load", Run: Fig8},
		{Name: "table5", Title: "Table 5: BLAST end-to-end (local disk vs stdchk)", Run: Table5},
		{Name: "managerload", Title: "Manager load (§V.E): metadata tps vs concurrent writers, striped vs single-lock catalog", Run: ManagerLoad},
		{Name: "fedload", Title: "Federated manager load (§V.E extension): aggregate metadata tps at 1/2/4 partitioned managers over sockets", Run: FedLoad},
		{Name: "restartload", Title: "Restart storm (§V read path): cold vs warm chunk-map caches, N readers re-opening M datasets through the router", Run: RestartLoad},
		{Name: "restoredelta", Title: "Incremental restore (§IV.A read goal): full vs baseline-delta restore bytes and latency through the router", Run: RestoreDelta},
		{Name: "openload", Title: "Open-loop traffic: latency vs Poisson offered load over mux'd connections, with the admission-control ablation", Run: OpenLoad},
		{Name: "readload", Title: "Pipelined data plane (§IV.E read path): restore MB/s vs chunk size, serial stop-and-wait vs batched mux transport", Run: ReadLoad},
		{Name: "churnload", Title: "Benefactor churn (§III donation dynamics): flap/death/rejoin cycles, priority repair timeline, zero-loss restores", Run: ChurnLoad},
		{Name: "ablation-rolling", Title: "Rolling-hash CbCH vs paper's overlap/no-overlap", Ablation: true, Run: AblationRolling},
		{Name: "ablation-xenfix", Title: "Ordered Xen dumps restore similarity", Ablation: true, Run: AblationXenFix},
		{Name: "ablation-writepriority", Title: "Replication write-priority throttling", Ablation: true, Run: AblationWritePriority},
		{Name: "ablation-readpath", Title: "Restart read throughput vs stripe width and read-ahead", Ablation: true, Run: AblationReadPath},
	}
}

// Find locates a runner by name.
func Find(name string) (Runner, bool) {
	for _, r := range All() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// paperCluster starts a shaped cluster with paper-calibrated benefactors.
func paperCluster(benefactors int, fabricBps float64) (*grid.Cluster, error) {
	return grid.Start(grid.Options{
		Benefactors:       benefactors,
		BenefactorProfile: device.PaperNode(),
		FabricBps:         fabricBps,
		Manager: manager.Config{
			HeartbeatInterval:   200 * time.Millisecond,
			ReplicationInterval: 500 * time.Millisecond,
			WritePriority:       true,
		},
		// GC runs only when the harness calls Cluster.CollectAll between
		// repetitions (after deletes), so a tiny grace is safe here.
		GCGrace:    time.Millisecond,
		GCInterval: time.Hour,
	})
}

// writeOnce writes size bytes through a fresh writer and returns the
// metrics. Block size models the application's write() granularity.
func writeOnce(cl *client.Client, name string, size int64, block int) (client.WriteMetrics, error) {
	w, err := cl.Create(name)
	if err != nil {
		return client.WriteMetrics{}, err
	}
	buf := make([]byte, block)
	for i := range buf {
		buf[i] = byte(i*31 + 7)
	}
	var written int64
	for written < size {
		n := int64(len(buf))
		if written+n > size {
			n = size - written
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return client.WriteMetrics{}, err
		}
		written += n
	}
	if err := w.Close(); err != nil {
		return client.WriteMetrics{}, err
	}
	if err := w.Wait(); err != nil {
		return client.WriteMetrics{}, err
	}
	return w.Metrics(), nil
}

// writeImage writes img through a fresh writer in one Write and returns
// the metrics once the version is committed.
func writeImage(cl *client.Client, name string, img []byte) (client.WriteMetrics, error) {
	w, err := cl.Create(name)
	if err == nil {
		if _, err = w.Write(img); err == nil {
			if err = w.Close(); err == nil {
				err = w.Wait()
			}
		}
	}
	if err != nil {
		return client.WriteMetrics{}, err
	}
	return w.Metrics(), nil
}

// appBlock is the application write granularity used throughout the
// evaluation (a typical FUSE max write of the era).
const appBlock = 128 << 10

// protoClient builds a shaped client for a protocol experiment.
func protoClient(c *grid.Cluster, p client.Protocol, width int, chunk int64, buffer, temp int64, profile device.Profile) (*client.Client, error) {
	cl, _, err := c.NewClient(client.Config{
		Protocol:      p,
		StripeWidth:   width,
		ChunkSize:     chunk,
		BufferBytes:   buffer,
		TempFileBytes: temp,
		Replication:   1, // protocol benches isolate the write path
		Semantics:     core.WriteOptimistic,
	}, profile)
	return cl, err
}

// memo holds the tables of the sweeps that several runners share (Figures
// 2 and 3 read one protocol sweep, Figures 4 and 5 one buffer sweep),
// keyed by sweep and configuration.
var memo struct {
	mu     sync.Mutex
	tables map[string][]Table
}

// memoized returns the tables run produced for key, running it on the
// first call.
func memoized(key string, run func() ([]Table, error)) ([]Table, error) {
	memo.mu.Lock()
	defer memo.mu.Unlock()
	if t, ok := memo.tables[key]; ok {
		return t, nil
	}
	t, err := run()
	if err != nil {
		return nil, err
	}
	if memo.tables == nil {
		memo.tables = map[string][]Table{}
	}
	memo.tables[key] = t
	return t, nil
}

// fileSeq numbers the files measureCell writes, so no two share a name.
var fileSeq atomic.Int64

// cellMeans are the means of one measurement cell's repetitions.
type cellMeans struct {
	oab, asb float64 // MB/s
	probe    float64 // mean of the probe's values
}

// measureCell runs one cell's repetitions on cluster c: each writes a
// size-byte file through a fresh client (newClient), hands the client
// and the file name to probe when probe is set, then deletes the file
// and closes the client. CollectAll then reclaims the deleted chunks.
func measureCell(c *grid.Cluster, runs int, size int64, newClient func() (*client.Client, error), probe func(*client.Client, string) (float64, error)) (cellMeans, error) {
	var oab, asb, pr metrics.Summary
	for run := 0; run < runs; run++ {
		cl, err := newClient()
		if err != nil {
			return cellMeans{}, err
		}
		name := fmt.Sprintf("cell.n%d.t0", fileSeq.Add(1))
		m, err := writeOnce(cl, name, size, appBlock)
		if err == nil && probe != nil {
			var v float64
			v, err = probe(cl, name)
			pr.Add(v)
		}
		if err != nil {
			cl.Close()
			return cellMeans{}, err
		}
		oab.Add(m.OABMBps())
		asb.Add(m.ASBMBps())
		cl.Delete(name, 0)
		cl.Close()
	}
	c.CollectAll()
	return cellMeans{oab: oab.Mean(), asb: asb.Mean(), probe: pr.Mean()}, nil
}
