package experiments

import (
	"fmt"

	"stdchk/internal/client"
	"stdchk/internal/device"
)

// runSWBufferSweep measures the sliding-window protocol across stripe
// widths and buffer sizes and returns the OAB table (Figure 4) and the
// ASB table (Figure 5). The two figures share one sweep (memoized per
// config).
func runSWBufferSweep(cfg Config) ([]Table, error) {
	return memoized(fmt.Sprintf("swbuffer/%d/%d", cfg.Scale, cfg.Runs), func() ([]Table, error) {
		size := cfg.scaled(1 << 30)
		chunk := cfg.chunkSize()

		c, err := paperCluster(8, 0)
		if err != nil {
			return nil, err
		}
		defer c.Close()

		params := fmt.Sprintf("(file %d MB scaled 1/%d, %d runs)", size>>20, cfg.Scale, cfg.Runs)
		oab := Table{Name: "oab", Title: "Figure 4: sliding-window OAB by buffer size " + params,
			Keys: []string{"buffer (paper)"}, Columns: widthColumns(sweepWidths)}
		asb := Table{Name: "asb", Title: "Figure 5: sliding-window ASB by buffer size " + params,
			Keys: []string{"buffer (paper)"}, Columns: widthColumns(sweepWidths)}
		for _, paperBuf := range []int64{32 << 20, 64 << 20, 128 << 20, 256 << 20, 512 << 20} {
			var oabRow, asbRow []float64
			for _, width := range sweepWidths {
				m, err := measureCell(c, cfg.Runs, size, func() (*client.Client, error) {
					return protoClient(c, client.SlidingWindow, width, chunk, cfg.scaled(paperBuf), 0, device.PaperNode())
				}, nil)
				if err != nil {
					return nil, fmt.Errorf("sw buffer %dMB width %d: %w", paperBuf>>20, width, err)
				}
				oabRow = append(oabRow, m.oab)
				asbRow = append(asbRow, m.asb)
			}
			label := labels(fmt.Sprintf("%dMB", paperBuf>>20))
			oab.add(label, oabRow...)
			asb.add(label, asbRow...)
		}
		for _, t := range []*Table{&oab, &asb} {
			t.note("paper: saturation at width 2; larger buffers raise OAB toward memory speed")
		}
		return []Table{oab, asb}, nil
	})
}

// Fig4 regenerates the sliding-window OAB vs buffer-size plot: larger
// buffers absorb more of the file and raise the application-perceived
// bandwidth; the network saturates at stripe width 2.
func Fig4(cfg Config) ([]Table, error) {
	t, err := runSWBufferSweep(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return t[:1], nil
}

// Fig5 regenerates the sliding-window ASB vs buffer-size plot: storage
// bandwidth is buffer-insensitive (the network is the bottleneck) and
// saturates at width 2.
func Fig5(cfg Config) ([]Table, error) {
	t, err := runSWBufferSweep(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return t[1:], nil
}

// Fig6 regenerates the 10 Gbps testbed experiment (§V.D): one fast client
// (10 Gbps NIC) striping over 1 Gbps benefactors aggregates their
// bandwidth — the paper reaches 325 MB/s OAB and 225 MB/s ASB at width 4.
func Fig6(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	size := cfg.scaled(1 << 30)
	chunk := cfg.chunkSize()
	buffer := cfg.scaled(512 << 20)

	c, err := paperCluster(4, 0)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	t := Table{
		Name:    "tengig",
		Title:   fmt.Sprintf("Figure 6: 10 Gbps client, sliding window, buffer 512 MB (scaled 1/%d), %d runs", cfg.Scale, cfg.Runs),
		Keys:    []string{"stripe width"},
		Columns: []Column{col("OAB", "MB/s", 1), col("ASB", "MB/s", 1)},
	}
	for _, width := range []int{1, 2, 3, 4} {
		m, err := measureCell(c, cfg.Runs, size, func() (*client.Client, error) {
			return protoClient(c, client.SlidingWindow, width, chunk, buffer, 0, device.PaperTenGigClient())
		}, nil)
		if err != nil {
			return nil, fmt.Errorf("fig6 width %d: %w", width, err)
		}
		t.add(labels(width), m.oab, m.asb)
	}
	t.note("paper: OAB rises to ≈325 MB/s, ASB to ≈225 MB/s at width 4 (no saturation)")
	return []Table{t}, nil
}
