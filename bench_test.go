package stdchk_test

import (
	"testing"

	"stdchk/internal/experiments"
)

// The benchmarks below regenerate the paper's tables and figures, one
// bench per artifact, at a reduced scale so `go test -bench=.` finishes in
// minutes. Run `go run ./cmd/stdchk-bench -exp all` for the full formatted
// evaluation with paper-reference values, and see EXPERIMENTS.md for the
// paper-vs-measured record.
//
// benchScale divides the paper's data sizes (the 1 GB test file becomes
// 8 MB); bandwidth calibrations are never scaled, so bottleneck ratios and
// result shapes are preserved.
const benchScale = 128

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	r, ok := experiments.Find(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(experiments.Config{Scale: benchScale, Runs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1FUSEOverhead regenerates Table 1: local I/O vs the FUSE
// call path vs /stdchk/null.
func BenchmarkTable1FUSEOverhead(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2OAB regenerates Figure 2: observed application bandwidth
// for CLW/IW/SW across stripe widths, with local/FUSE/NFS baselines.
func BenchmarkFig2OAB(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3ASB regenerates Figure 3: achieved storage bandwidth for
// the same sweep.
func BenchmarkFig3ASB(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4SWBuffers regenerates Figure 4: sliding-window OAB by
// buffer size and stripe width.
func BenchmarkFig4SWBuffers(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5SWBuffersASB regenerates Figure 5: sliding-window ASB by
// buffer size and stripe width.
func BenchmarkFig5SWBuffersASB(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig6TenGig regenerates Figure 6: the 10 Gbps client
// aggregating 1 Gbps benefactors.
func BenchmarkFig6TenGig(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkTable2Traces regenerates Table 2: checkpoint trace
// characteristics.
func BenchmarkTable2Traces(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3Heuristics regenerates Table 3: FsCH vs CbCH similarity
// detection and throughput across the four traces.
func BenchmarkTable3Heuristics(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkTable4CbCHSweep regenerates Table 4: the CbCH no-overlap
// (m, k) parameter sweep.
func BenchmarkTable4CbCHSweep(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig7IncrementalSW regenerates Figure 7: sliding-window writes
// of successive BLCR images with and without FsCH dedup.
func BenchmarkFig7IncrementalSW(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Scalability regenerates Figure 8: 7 concurrent clients
// against 20 benefactors, fabric-limited.
func BenchmarkFig8Scalability(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable5BlastEndToEnd regenerates Table 5: the end-to-end BLAST
// run on local disk vs stdchk.
func BenchmarkTable5BlastEndToEnd(b *testing.B) { benchExperiment(b, "table5") }
