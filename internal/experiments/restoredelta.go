package experiments

import (
	"bytes"
	"fmt"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
)

// RestoreDelta measures full versus incremental restore: a reader that
// already holds version N locally re-opens version N+1 with
// OpenOptions.Baseline, so only the chunks the two versions do NOT share
// cross the network. The sweep varies how much of the checkpoint changed
// between the versions (the delta fraction) and records, per restore,
// the bytes fetched, the bytes reused from the local baseline, and the
// manager's answer to MDiff — the three numbers whose agreement is the
// feature's acceptance criterion (fetched ≈ diff, fetched + local =
// file size, output byte-identical either way).
//
// The metadata plane is a 2-member federation over real sockets, so the
// history/diff query plane and the cross-member map prefetch (MGetMaps,
// one round trip per member touched) run through the Router exactly as
// a deployment would drive them.
//
// Like managerload/fedload the shape is fixed (Config.Scale has no
// effect): 512 KB images in 32 KB chunks, delta fractions 1/16, 1/4,
// 1/2; Config.Runs sets the repetitions averaged per cell.
func RestoreDelta(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	const (
		managers  = 2
		imageSize = 512 << 10
		chunkSize = 32 << 10
		nChunks   = imageSize / chunkSize
	)
	deltaFracs := []float64{1.0 / 16, 1.0 / 4, 1.0 / 2}

	c, err := grid.Start(grid.Options{
		Managers:          managers,
		Benefactors:       8,
		BenefactorProfile: device.Unshaped(),
		Manager: manager.Config{
			HeartbeatInterval:   200 * time.Millisecond,
			ReplicationInterval: time.Hour, // no replica churn mid-measurement
			PruneInterval:       time.Hour,
		},
		GCGrace:    time.Hour,
		GCInterval: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()

	cl, _, err := c.NewClient(client.Config{
		StripeWidth: 2, ChunkSize: chunkSize, Replication: 1,
		Semantics: core.WriteOptimistic,
	}, device.Unshaped())
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	// Seed one dataset per delta fraction: t0 is the base image, t1 the
	// mutated one. Fixed chunking keeps unchanged regions chunk-identical,
	// so the catalog's chunk-span diff is exact.
	baseData := make([]byte, imageSize)
	for i := range baseData {
		baseData[i] = byte(i*31 + 7)
	}
	names := make([]string, len(deltaFracs))
	baseVer := make([]core.VersionID, len(deltaFracs))
	newVer := make([]core.VersionID, len(deltaFracs))
	newData := make([][]byte, len(deltaFracs))
	for d, frac := range deltaFracs {
		names[d] = fmt.Sprintf("rd.n%d", d)
		if _, err := writeImage(cl, names[d]+".t0", baseData); err != nil {
			return nil, err
		}
		mutated := append([]byte(nil), baseData...)
		changed := int(float64(nChunks) * frac)
		if changed < 1 {
			changed = 1
		}
		// Spread the changed chunks across the image.
		for i := 0; i < changed; i++ {
			ch := i * nChunks / changed
			off := ch * chunkSize
			for j := off; j < off+chunkSize; j++ {
				mutated[j] ^= 0xA5
			}
		}
		if _, err := writeImage(cl, names[d]+".t1", mutated); err != nil {
			return nil, err
		}
		newData[d] = mutated
		info, err := cl.Stat(names[d])
		if err != nil {
			return nil, err
		}
		baseVer[d] = info.Versions[0].Version
		newVer[d] = info.Versions[1].Version
	}

	// Warm the client's chunk-map cache for every dataset in one batched
	// round trip per federation member (MGetMaps through the Router).
	if _, err := cl.PrefetchMaps(names); err != nil {
		return nil, err
	}

	t := Table{
		Name:  "restore",
		Title: fmt.Sprintf("Full vs incremental restore: %d KB images in %d KB chunks through a %d-manager router", imageSize>>10, chunkSize>>10, managers),
		Keys:  []string{"delta", "mode"},
		Columns: []Column{
			col("bytes", "B", 0), col("diff bytes", "B", 0), col("fetched", "B", 0),
			col("local", "B", 0), col("restore time", "ms", 1),
		},
	}
	// restore reads version t1 of dataset d back, fully or against the
	// local t0 baseline, checks it byte for byte, and returns its row's
	// cells.
	restore := func(d int, mode string) ([]float64, error) {
		diff, err := cl.Diff(names[d], baseVer[d], newVer[d])
		if err != nil {
			return nil, err
		}
		opt := client.OpenOptions{Version: newVer[d]}
		if mode == "incremental" {
			opt.Baseline = baseVer[d]
			opt.BaselineData = baseData
		}
		start := time.Now()
		r, err := cl.Open(names[d], opt)
		if err != nil {
			return nil, err
		}
		got, err := r.ReadAll()
		if err != nil {
			r.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		fetched, local := r.BytesFetched(), r.BytesLocal()
		r.Close()
		if !bytes.Equal(got, newData[d]) {
			return nil, fmt.Errorf("%s restore of %s.t1 is not byte-identical to the committed image", mode, names[d])
		}
		return []float64{float64(len(got)), float64(diff.DiffBytes), float64(fetched), float64(local),
			float64(elapsed.Microseconds()) / 1000}, nil
	}
	for d, frac := range deltaFracs {
		for _, mode := range []string{"full", "incremental"} {
			// Average the latency over Runs; byte counters are per restore
			// and identical across repetitions, so the last one carries them.
			var cells []float64
			var ms float64
			for rep := 0; rep < cfg.Runs; rep++ {
				var err error
				if cells, err = restore(d, mode); err != nil {
					return nil, fmt.Errorf("restoredelta %s %.3f: %w", mode, frac, err)
				}
				ms += cells[4]
			}
			cells[4] = ms / float64(cfg.Runs)
			t.add(labels(fmt.Sprintf("%.3f", frac), mode), cells...)
		}
	}
	t.note("incremental restores fetch only the version delta; unchanged chunks are hash-verified local copies")
	t.note("paper: read performance minimizes restart delays (§IV.A); 1-CPU boxes time-slice reader and servers, see EXPERIMENTS.md")
	return []Table{t}, nil
}
