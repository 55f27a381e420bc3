package experiments

import (
	"fmt"

	"stdchk/internal/device"
	"stdchk/internal/fsiface"
	"stdchk/internal/metrics"
)

// Table1 regenerates paper Table 1: the time to write a 1 GB file to the
// local disk, to the local disk through the FUSE call path, and to
// /stdchk/null (the FUSE path with writes discarded). The paper reports
// 11.80 s, 12.00 s and 1.04 s: the user-space interface adds ~2% on top of
// local I/O, and the interface itself costs ~32 µs per call.
func Table1(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	size := cfg.scaled(1 << 30)

	kinds := []struct {
		kind  fsiface.BaselineKind
		label string
		paper float64 // seconds for 1 GB
	}{
		{fsiface.BaselineLocal, "Local I/O", 11.80},
		{fsiface.BaselineFuseLocal, "FUSE to local I/O", 12.00},
		{fsiface.BaselineNull, "/stdchk/null", 1.04},
	}

	t := Table{
		Name:  "write-time",
		Title: fmt.Sprintf("Table 1: time to write a 1 GB file (scaled 1/%d: %d MB, %d runs)", cfg.Scale, size>>20, cfg.Runs),
		Keys:  []string{"Write path"},
		Columns: []Column{
			col("avg (scaled)", "s", 3), col("stddev", "s", 3),
			col("1GB-equiv", "s", 2), col("paper (1GB)", "s", 2),
		},
	}
	for _, k := range kinds {
		var sum metrics.Summary
		for run := 0; run < cfg.Runs; run++ {
			node := device.NewNode(device.PaperNode())
			b := fsiface.NewBaseline(k.kind, node, nil)
			buf := make([]byte, appBlock)
			for w := int64(0); w < size; w += int64(len(buf)) {
				n := int64(len(buf))
				if w+n > size {
					n = size - w
				}
				if _, err := b.Write(buf[:n]); err != nil {
					return nil, fmt.Errorf("table1 %s: %w", k.label, err)
				}
			}
			b.Close()
			sum.Add(b.Duration().Seconds())
		}
		t.add(labels(k.label), sum.Mean(), sum.StdDev(), sum.Mean()*float64(cfg.Scale), k.paper)
	}
	t.note("paper: local I/O 11.80 s, FUSE to local I/O 12.00 s, /stdchk/null 1.04 s per 1 GB; the FUSE call costs ≈32 µs")
	return []Table{t}, nil
}
