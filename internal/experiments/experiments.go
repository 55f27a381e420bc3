// Package experiments regenerates every table and figure of the paper's
// evaluation (§V). Each experiment is a named runner that drives the real
// stdchk stack — manager, benefactors, clients over loopback TCP — with
// device models calibrated to the paper's testbed, and prints rows in the
// paper's layout next to the paper's reported values.
//
// Sizes are scaled down by Config.Scale (default 64: the paper's 1 GB
// test file becomes 16 MB) so a full sweep finishes in minutes; bandwidth
// calibrations are NOT scaled, so every bottleneck ratio — and therefore
// the shape of each result — is preserved. EXPERIMENTS.md records
// paper-vs-measured for every row.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
)

// Config parameterizes a run.
type Config struct {
	// Scale divides the paper's data sizes (1 = full size, 64 default).
	Scale int64
	// Runs is the number of repetitions per configuration (the paper
	// averages 20; 3 keeps the full sweep quick).
	Runs int
	// Out receives the formatted tables.
	Out io.Writer
	// JSON, when non-nil, receives machine-readable result records
	// (JSON lines) from experiments that emit them (managerload). The
	// nightly CI job archives this stream.
	JSON io.Writer
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
	if c.Out == nil {
		c.Out = io.Discard
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
	// Run executes the experiment and prints its table(s).
	Run func(Config) error
}

// All returns the experiment registry in paper order.
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

// fmtMB formats a throughput cell.
func fmtMB(v float64) string { return fmt.Sprintf("%7.1f", v) }

// sortedKeys returns sorted map keys for deterministic table output.
func sortedKeys(m map[int]float64) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
