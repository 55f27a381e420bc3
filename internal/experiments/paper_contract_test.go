package experiments

import (
	"fmt"
	"strings"
	"testing"
)

// TestPaperContract holds the paper's evaluation (§V) to the rows of
// EXPERIMENTS.md's "Paper reference values": it runs every paper runner
// at scale 256 and checks the shape of each returned table — orderings,
// saturation, monotonicity — and, where a table is deterministic, its
// exact values.
//
// The bounds come from runs at this scale and Runs = 3 on a 2-core
// x86-64 host (go1.24): six of the runners as they were when they
// printed text, and six more returning tables — the measured code is the
// same. Two kinds of bound, each stated at its check with the range it
// came from:
//
//   - The sliding-window checks (Fig 2 and Fig 3 SW/IW, Fig 5's smallest
//     buffer row) are the twelve quiet runs' mean minus three standard
//     deviations, rounded outward. A window that admits whole-window
//     pieces (stop-and-wait over the window) lands below all three: SW/IW
//     ASB 0.67–0.85, SW/IW OAB 0.63–0.80 and smallest/largest ASB row
//     0.63–0.75 in 29 measurements of such a writer.
//   - The other checks state the paper's qualitative claim ("≫",
//     "saturates", "fabric-limited") with a margin wide enough for the
//     values seen while `go test ./...` ran the other packages beside
//     this one.
//
// A figure measured on the wall clock fails only when three fresh
// measurements in a row break a bound (holds): a sweep that loses its
// CPU to other test binaries can read like a slow window once (one
// retry in four runs of `go test ./...` here), while a slow writer is
// slow every time. Exact values are the ones every run printed. The
// logged values (-v) extend the record.
//
// The race detector's slowdown breaks the wall-clock shapes, so the test
// does not run under -race; CI's experiments-smoke job runs it without.
func TestPaperContract(t *testing.T) {
	if raceEnabled {
		t.Skip("figure shapes are wall-clock measurements; -race slows the CPU-bound paths several-fold")
	}
	cfg := Config{Scale: 256, Runs: 3}
	run := func(t *testing.T, runner func(Config) ([]Table, error), name string) Table {
		t.Helper()
		tables, err := runner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tableNamed(t, tables, name)
	}
	// rowMean averages a row's cells over the given columns.
	rowMean := func(t *testing.T, tb Table, label string, columns ...string) float64 {
		t.Helper()
		var sum float64
		for _, c := range columns {
			sum += mustCell(t, tb, label, c)
		}
		return sum / float64(len(columns))
	}
	// widthTwoOfBest is a row's width-2 cell over its best cell from
	// width 2 up: 1 when the curve has saturated at width 2.
	widthTwoOfBest := func(t *testing.T, tb Table, label string) float64 {
		t.Helper()
		best := 0.0
		for _, w := range []string{"width 2", "width 4", "width 8"} {
			best = max(best, mustCell(t, tb, label, w))
		}
		return mustCell(t, tb, label, "width 2") / best
	}
	widths := []string{"width 1", "width 2", "width 4", "width 8"}
	wide := widths[1:] // stripe widths from 2 up, where the paper's curves have saturated

	t.Run("Table1", func(t *testing.T) {
		// Paper: local ≈ FUSE; /stdchk/null a small fraction of both.
		holds(t, func(b *bounds) {
			tb := run(t, Table1, "write-time")
			local := mustCell(t, tb, "Local I/O", "avg (scaled)")
			fuse := mustCell(t, tb, "FUSE to local I/O", "avg (scaled)")
			null := mustCell(t, tb, "/stdchk/null", "avg (scaled)")
			// FUSE/local 0.94–1.10 quiet (mean 1.011, sd 0.037).
			b.atLeast("FUSE/local write time", fuse/local, 0.75)
			b.atMost("FUSE/local write time", fuse/local, 1.35)
			// null/local 0.040–0.058 quiet, 0.067 beside other tests.
			b.atMost("null/local write time", null/local, 0.2)
		})
	})

	t.Run("Fig2", func(t *testing.T) {
		// Paper: SW/IW OAB ≈ 110 MB/s saturating at width 2; CLW ≈
		// FUSE-local; NFS 24.8 MB/s.
		holds(t, func(b *bounds) {
			tb := run(t, Fig2, "oab")
			sw := rowMean(t, tb, "sliding-window", wide...)
			iw := rowMean(t, tb, "incremental", wide...)
			clw := rowMean(t, tb, "complete-local", wide...)
			// SW/IW 0.855–0.945 quiet (mean 0.907, sd 0.028); 0.63–0.80
			// with whole-window admission.
			b.atLeast("OAB SW/IW (widths 2-8)", sw/iw, 0.82)
			// SW/CLW 1.30–1.35 quiet, 1.16 beside other tests; IW/CLW
			// 1.39–1.58 quiet, 1.32 beside other tests.
			b.atLeast("OAB SW/CLW (widths 2-8)", sw/clw, 1.1)
			b.atLeast("OAB IW/CLW (widths 2-8)", iw/clw, 1.15)
			// CLW/FUSE 0.88–1.05: FUSE is one unrepeated baseline write.
			clwAll := rowMean(t, tb, "complete-local", widths...)
			fuse := mustCell(t, tb, "FUSE", "width 1")
			b.atLeast("OAB CLW/FUSE", clwAll/fuse, 0.75)
			b.atMost("OAB CLW/FUSE", clwAll/fuse, 1.25)
			// NFS/SW 0.19–0.22 quiet, 0.24 beside other tests.
			b.atMost("OAB NFS/SW", mustCell(t, tb, "NFS", "width 1")/sw, 0.35)
			// Width 2/best: SW 0.92–1.00 and IW 0.88–1.00 quiet, SW 0.84
			// beside other tests.
			for _, p := range []string{"sliding-window", "incremental"} {
				b.atLeast("OAB "+p+" width 2/best", widthTwoOfBest(t, tb, p), 0.75)
			}
		})
	})

	t.Run("Fig3", func(t *testing.T) {
		// Paper: ASB ordering SW > IW > CLW; SW approaches the NIC limit
		// at width ≥ 2. Measured here SW ≈ IW ≫ CLW.
		holds(t, func(b *bounds) {
			tb := run(t, Fig3, "asb")
			sw := rowMean(t, tb, "sliding-window", wide...)
			iw := rowMean(t, tb, "incremental", wide...)
			clw := rowMean(t, tb, "complete-local", wide...)
			// SW/IW 0.925–1.066 quiet (mean 0.981, sd 0.038); 0.67–0.85
			// with whole-window admission.
			b.atLeast("ASB SW/IW (widths 2-8)", sw/iw, 0.86)
			// IW/CLW 3.26–3.61 quiet, 3.17 beside other tests.
			b.atLeast("ASB IW/CLW (widths 2-8)", iw/clw, 2.5)
			// Width 2/best: SW 0.91–1.00 and IW 0.92–1.00 quiet, SW 0.83
			// beside other tests; width 2 over width 1, SW 1.04–1.24.
			for _, p := range []string{"sliding-window", "incremental"} {
				b.atLeast("ASB "+p+" width 2/best", widthTwoOfBest(t, tb, p), 0.75)
			}
			b.atLeast("ASB SW width 2/width 1", mustCell(t, tb, "sliding-window", "width 2")/mustCell(t, tb, "sliding-window", "width 1"), 0.9)
		})
	})

	// bufferRows are the mean over stripe widths of each buffer row, in
	// buffer order.
	bufferRows := func(t *testing.T, tb Table) []float64 {
		t.Helper()
		var out []float64
		for _, b := range []string{"32MB", "64MB", "128MB", "256MB", "512MB"} {
			out = append(out, rowMean(t, tb, b, widths...))
		}
		return out
	}
	// monotone is the smallest ratio of a row to the largest row before
	// it: 1 or more for a non-decreasing sequence.
	monotone := func(rows []float64) float64 {
		worst, best := 2.0, rows[0]
		for _, r := range rows[1:] {
			worst = min(worst, r/best)
			best = max(best, r)
		}
		return worst
	}

	t.Run("Fig4", func(t *testing.T) {
		// Paper: larger sliding-window buffers raise OAB toward memory
		// speed.
		holds(t, func(b *bounds) {
			rows := bufferRows(t, run(t, Fig4, "oab"))
			// Row/largest row before it 0.93–1.08 quiet; 512 MB/32 MB
			// 1.34–1.67 quiet.
			b.atLeast("OAB monotone in the buffer", monotone(rows), 0.85)
			b.atLeast("OAB 512MB/32MB", rows[4]/rows[0], 1.15)
		})
	})

	t.Run("Fig5", func(t *testing.T) {
		// Paper: ASB is insensitive to the buffer (the network is the
		// bottleneck) and saturates at width 2.
		holds(t, func(b *bounds) {
			rows := bufferRows(t, run(t, Fig5, "asb"))
			// Row/largest row before it 0.90–0.98 quiet.
			b.atLeast("ASB monotone in the buffer", monotone(rows), 0.8)
			// Smallest/largest row 0.84–0.93 quiet (mean 0.887, sd
			// 0.026); 0.63–0.75 with whole-window admission.
			b.atLeast("ASB smallest/largest buffer row", min(rows[0], rows[1], rows[2], rows[3], rows[4])/max(rows[0], rows[1], rows[2], rows[3], rows[4]), 0.8)
		})
	})

	t.Run("Fig6", func(t *testing.T) {
		// Paper: a 10 Gbps client aggregates 1 Gbps benefactors — OAB
		// and ASB keep rising to width 4.
		holds(t, func(b *bounds) {
			tb := run(t, Fig6, "tengig")
			// Width 4/width 1: OAB 1.58–2.53, ASB 1.84–3.09 quiet.
			b.atLeast("OAB width 4/width 1", mustCell(t, tb, "4", "OAB")/mustCell(t, tb, "1", "OAB"), 1.15)
			b.atLeast("ASB width 4/width 1", mustCell(t, tb, "4", "ASB")/mustCell(t, tb, "1", "ASB"), 1.4)
		})
	})

	t.Run("Table2", func(t *testing.T) {
		tb := run(t, Table2, "traces")
		for _, want := range []struct {
			label            string
			images           string
			avg, paperImages string
			paperAvg         string
		}{
			{"BMS/application/1m0s", "6", "0.07", "100", "2.7"},
			{"BLAST/library (BLCR)/5m0s", "6", "16.78", "902", "279.6"},
			{"BLAST/library (BLCR)/15m0s", "6", "16.78", "654", "308.1"},
			{"BLAST/VM (Xen)/5m0s", "6", "16.84", "100", "1024.8"},
		} {
			expectPrinted(t, tb, want.label, map[string]string{
				"Images": want.images, "Avg": want.avg, "paper images": want.paperImages, "paper avg": want.paperAvg,
			})
		}
	})

	t.Run("Table3", func(t *testing.T) {
		// Paper: FsCH ≈ 0/25/9 % on app/BLCR5/BLCR15, overlap CbCH
		// ≈ 0/84/71 %, Xen near zero for all. The similarity columns are
		// deterministic.
		tb := run(t, Table3, "similarity")
		for _, line := range strings.Split(strings.TrimSpace(`
FsCH(1KB)                     0.0  26.2   8.0  1.1
FsCH(256KB)                   0.0  25.9   7.8  0.0
FsCH(1MB)                     0.0  25.0   6.2  0.0
CbCH(overlap,m=20B,k=14b)     0.0  82.9  68.4  0.8
CbCH(no-overlap,m=20B,k=14b)  0.0  22.5   9.5  0.0`), "\n") {
			f := strings.Fields(line)
			expectPrinted(t, tb, f[0], map[string]string{
				"app sim": f[1], "BLCR5 sim": f[2], "BLCR15 sim": f[3], "Xen sim": f[4],
			})
		}
	})

	t.Run("Table4", func(t *testing.T) {
		// Paper: chunk size grows with k and m. The similarity and
		// chunk-size columns are deterministic.
		tb := run(t, Table4, "cbch-sweep")
		for _, line := range strings.Split(strings.TrimSpace(`
8   20   31.3     5.0    0.0    49.6
8   32   28.4     8.0    0.0    67.2
8   64   27.1    15.7    0.1   157.3
8   128  25.3    32.9    0.1   243.3
8   256  25.6    62.2    0.2   418.9
10  20   31.2    20.1    0.0   173.9
10  32   28.2    32.5    0.0   226.5
10  64   26.8    62.6    0.1   575.1
10  128  25.1   131.2    0.8   783.0
10  256  25.2   246.5    3.9  1276.9
12  20   30.7    81.2    0.2   520.3
12  32   27.5   125.6    0.2   693.2
12  64   25.6   241.4    1.6  1391.4
12  128  23.7   526.1   16.1  2720.5
12  256  24.1   843.1   31.6  3615.2
14  20   26.7   370.5    4.6  1925.7
14  32   25.5   527.1   14.9  2340.8
14  64   17.3   941.0   36.2  3869.3
14  128  18.9  1797.1   70.7  7335.7
14  256  18.0  3867.1  626.1  9380.8`), "\n") {
			f := strings.Fields(line)
			expectPrinted(t, tb, f[0]+"/"+f[1], map[string]string{
				"similarity": f[2], "avg": f[3], "min": f[4], "max": f[5],
			})
		}
		// The paper's trend: the average chunk grows with m at every k.
		for _, k := range []string{"8", "10", "12", "14"} {
			prev := 0.0
			for _, m := range []string{"20", "32", "64", "128", "256"} {
				avg := mustCell(t, tb, k+"/"+m, "avg")
				if avg < prev {
					t.Errorf("avg chunk at k=%s m=%s is %.1f KB, below the smaller m's %.1f KB", k, m, avg, prev)
				}
				prev = avg
			}
		}
	})

	t.Run("Fig7", func(t *testing.T) {
		// Paper: 24 % space and network saving with FsCH on the BLCR
		// trace. Bytes saved is deterministic.
		tb := run(t, Fig7, "fsch")
		for _, buf := range []string{"64MB", "128MB", "256MB"} {
			expectPrinted(t, tb, buf+"/true", map[string]string{"bytes saved": "24.9"})
			expectPrinted(t, tb, buf+"/false", map[string]string{"bytes saved": "0.0"})
		}
	})

	t.Run("Fig8", func(t *testing.T) {
		// Paper: sustained ≈ 280 MB/s, limited by the fabric, not the 20
		// benefactors; ≈ 4 manager transactions per write.
		holds(t, func(b *bounds) {
			tb := run(t, Fig8, "summary")
			peak := mustCell(t, tb, "7", "sustained peak (3 buckets)")
			fabric := mustCell(t, tb, "7", "fabric cap")
			// Peak/cap 0.73–0.94 quiet (Fig 8 does not depend on Runs, so
			// twelve Runs = 1 runs count too), 0.51 beside other tests: at
			// the cap, never past it by more than the shaping quantum,
			// and above one client's Gigabit link (≈ 0.42 of the cap).
			b.atMost("sustained peak/fabric cap", peak/fabric, 1.05)
			b.atLeast("sustained peak/fabric cap", peak/fabric, 0.45)
			// 5.0 in every run.
			b.atMost("manager transactions per write", mustCell(t, tb, "7", "per write"), 5)
		})
	})

	t.Run("Table5", func(t *testing.T) {
		// Paper: stdchk beats local disk on total time, checkpoint time
		// and stored data.
		holds(t, func(b *bounds) {
			tb := run(t, Table5, "blast")
			// stdchk/local 0.95–0.96 (total), 0.20 (checkpointing), 0.35
			// (stored) in every run.
			for _, row := range []string{"Total execution time/s", "Checkpointing time/s", "Data size (stored)/MB"} {
				b.atMost(row+" stdchk/local", mustCell(t, tb, row, "stdchk")/mustCell(t, tb, row, "local disk"), 0.99)
			}
			// Stored-data improvement 64.8 % in every run.
			expectPrinted(t, tb, "Data size (stored)/MB", map[string]string{"improvement": "64.8"})
		})
	})
}

// bounds collects the checks of one measurement: a check that breaks its
// bound is recorded, not failed, so holds can measure again.
type bounds struct {
	t      *testing.T
	broken []string
}

func (b *bounds) atLeast(what string, got, bound float64) {
	b.t.Helper()
	b.t.Logf("%s = %.3f (bound ≥ %.3f)", what, got, bound)
	if got < bound {
		b.broken = append(b.broken, fmt.Sprintf("%s = %.3f, want ≥ %.3f", what, got, bound))
	}
}

func (b *bounds) atMost(what string, got, bound float64) {
	b.t.Helper()
	b.t.Logf("%s = %.3f (bound ≤ %.3f)", what, got, bound)
	if got > bound {
		b.broken = append(b.broken, fmt.Sprintf("%s = %.3f, want ≤ %.3f", what, got, bound))
	}
}

// holds runs check against up to three fresh measurements and fails t
// only when each of them breaks a bound.
func holds(t *testing.T, check func(b *bounds)) {
	t.Helper()
	for attempt := 1; ; attempt++ {
		b := &bounds{t: t}
		check(b)
		switch {
		case len(b.broken) == 0:
			return
		case attempt == 3:
			for _, msg := range b.broken {
				t.Error(msg)
			}
			return
		}
		t.Logf("measurement %d broke %q; measuring again", attempt, b.broken)
		memo.mu.Lock()
		memo.tables = nil // Figures 2-5 re-run their sweep
		memo.mu.Unlock()
	}
}

// expectPrinted checks cells of one row as Print renders them.
func expectPrinted(t *testing.T, tb Table, label string, want map[string]string) {
	t.Helper()
	for column, w := range want {
		v := mustCell(t, tb, label, column)
		for _, c := range tb.Columns {
			if c.Name == column {
				if got := formatCell(c, v); got != w {
					t.Errorf("%s: row %q column %q = %s, want %s", tb.Name, label, column, got, w)
				}
			}
		}
	}
}
