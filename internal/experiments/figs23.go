package experiments

import (
	"fmt"

	"stdchk/internal/client"
	"stdchk/internal/device"
	"stdchk/internal/fsiface"
	"stdchk/internal/metrics"
)

// sweepWidths are the stripe widths of Figures 2 to 5.
var sweepWidths = []int{1, 2, 4, 8}

// widthColumns are one MB/s column per stripe width.
func widthColumns(widths []int) []Column {
	cols := make([]Column, len(widths))
	for i, w := range widths {
		cols[i] = col(fmt.Sprintf("width %d", w), "MB/s", 1)
	}
	return cols
}

// runProtocolSweep measures CLW, IW and SW across stripe widths on a
// paper-calibrated cluster and returns the OAB table (Figure 2) and the
// ASB table (Figure 3). The two figures share one sweep (memoized per
// config).
func runProtocolSweep(cfg Config) ([]Table, error) {
	return memoized(fmt.Sprintf("protocol/%d/%d", cfg.Scale, cfg.Runs), func() ([]Table, error) {
		size := cfg.scaled(1 << 30)
		chunk := cfg.chunkSize()
		// Figure 2 uses modest staging (the buffer-size effect is swept
		// separately in Figures 4-5): 32 MB of window/temp per 1 GB file.
		buffer := cfg.scaled(32 << 20)
		temp := cfg.scaled(32 << 20)

		c, err := paperCluster(8, 0)
		if err != nil {
			return nil, err
		}
		defer c.Close()

		params := fmt.Sprintf("(file %d MB scaled 1/%d, chunk %d KB, %d runs)", size>>20, cfg.Scale, chunk>>10, cfg.Runs)
		oab := Table{Name: "oab", Title: "Figure 2: observed application bandwidth (OAB) " + params,
			Keys: []string{"protocol"}, Columns: widthColumns(sweepWidths)}
		asb := Table{Name: "asb", Title: "Figure 3: achieved storage bandwidth (ASB) " + params,
			Keys: []string{"protocol"}, Columns: widthColumns(sweepWidths)}
		for _, p := range []client.Protocol{client.CompleteLocalWrite, client.IncrementalWrite, client.SlidingWindow} {
			var oabRow, asbRow []float64
			for _, width := range sweepWidths {
				m, err := measureCell(c, cfg.Runs, size, func() (*client.Client, error) {
					return protoClient(c, p, width, chunk, buffer, temp, device.PaperNode())
				}, nil)
				if err != nil {
					return nil, fmt.Errorf("sweep %s width %d: %w", p, width, err)
				}
				oabRow = append(oabRow, m.oab)
				asbRow = append(asbRow, m.asb)
			}
			oab.add(labels(p), oabRow...)
			asb.add(labels(p), asbRow...)
		}

		// Width-independent baselines on the same calibration: the
		// paper draws them as flat lines, so every width carries the one
		// measurement.
		for _, b := range []struct {
			label string
			kind  fsiface.BaselineKind
		}{{"local I/O", fsiface.BaselineLocal}, {"FUSE", fsiface.BaselineFuseLocal}, {"NFS", fsiface.BaselineNFS}} {
			v := runBaseline(b.kind, size)
			flat := make([]float64, len(sweepWidths))
			for i := range flat {
				flat[i] = v
			}
			oab.add(labels(b.label), flat...)
			asb.add(labels(b.label), flat...)
		}
		oab.note("local I/O, FUSE and NFS are width-independent")
		oab.note("paper: SW/IW OAB ≈110 MB/s saturating at width 2; CLW ≈ FUSE-local; NFS 24.8 MB/s")
		asb.note("local I/O, FUSE and NFS are width-independent")
		asb.note("paper: SW/IW OAB ≈110 MB/s saturating at width 2; CLW ≈ FUSE-local; NFS 24.8 MB/s")
		asb.note("       ASB ordering SW > IW > CLW; SW approaches the NIC limit at width ≥ 2")
		return []Table{oab, asb}, nil
	})
}

// runBaseline measures one of the Local, FUSE and NFS write paths for a
// file of size bytes, in MB/s.
func runBaseline(kind fsiface.BaselineKind, size int64) float64 {
	node := device.NewNode(device.PaperNode())
	b := fsiface.NewBaseline(kind, node, fsiface.NewNFSServer())
	buf := make([]byte, appBlock)
	for w := int64(0); w < size; w += int64(len(buf)) {
		n := int64(len(buf))
		if w+n > size {
			n = size - w
		}
		b.Write(buf[:n])
	}
	b.Close()
	return metrics.MBps(size, b.Duration())
}

// Fig2 regenerates the observed application bandwidth plot: SW and IW
// reach ~110 MB/s and saturate the client with two Gigabit benefactors;
// CLW tracks local FUSE writes; NFS trails far behind.
func Fig2(cfg Config) ([]Table, error) {
	t, err := runProtocolSweep(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return t[:1], nil
}

// Fig3 regenerates the achieved storage bandwidth plot: CLW is worst
// (serialized local write then push), SW is best and saturates the client
// NIC at width 2.
func Fig3(cfg Config) ([]Table, error) {
	t, err := runProtocolSweep(cfg.withDefaults())
	if err != nil {
		return nil, err
	}
	return t[1:], nil
}
