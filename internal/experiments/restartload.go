package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
)

// RestartLoad measures the restart fast path: N reader clients re-opening
// M committed checkpoint datasets through the federation router, cold
// (empty chunk-map caches) versus warm (second pass of the same
// clients). This is the DMTCP-style restart storm the paper's read goal
// (§IV.A "provide good read performance to minimize restart delays")
// exists for: every process of a job opens its checkpoint at once, and
// the metadata plane — not the data path — sets the latency floor.
//
// Two open modes run the same sweep:
//
//   - version: explicit-version opens. A warm client serves these from
//     its cache with ZERO manager RPCs (committed versions are
//     immutable).
//   - latest: "newest version" opens. A warm client revalidates with one
//     MStatVersion probe (name → version identity, no location payload)
//     and reuses the cached map on match.
//
// The JSON records carry the per-phase manager RPC deltas (getMaps,
// statVersions) and the manager-side hot-map cache counters, so the
// zero-RPC warm-path claim is asserted, not eyeballed
// (TestRestartLoadSmoke gates it in CI). The cache-off baseline, where
// every open pays a full MGetMap, is a historical row in EXPERIMENTS.md.
//
// Like managerload/fedload the shape is fixed (Config.Scale has no
// effect): 2 federated managers over real sockets, 8 datasets x 2
// versions of 256 KB in 32 KB chunks.
func RestartLoad(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		managers    = 2
		datasets    = 8
		versionsPer = 2
		imageSize   = 256 << 10
		chunkSize   = 32 << 10
	)
	readersSweep := []int{4, 16}

	type cell struct {
		Experiment   string  `json:"experiment"`
		Mode         string  `json:"mode"`
		Readers      int     `json:"readers"`
		Phase        string  `json:"phase"`
		Opens        int64   `json:"opens"`
		OpensPerSec  float64 `json:"opensPerSec"`
		GetMaps      int64   `json:"getMaps"`
		StatVersions int64   `json:"statVersions"`
		MgrCacheHits int64   `json:"managerMapCacheHits"`
	}

	jdir, err := os.MkdirTemp("", "stdchk-restartload")
	if err != nil {
		return err
	}
	defer os.RemoveAll(jdir)
	c, err := grid.Start(grid.Options{
		Managers:          managers,
		Benefactors:       8,
		BenefactorProfile: device.Unshaped(),
		Manager: manager.Config{
			HeartbeatInterval:   200 * time.Millisecond,
			ReplicationInterval: time.Hour, // no replica churn mid-measurement
			PruneInterval:       time.Hour,
			// A journaled metadata plane: the seeding commits run through
			// the ordered async writer, group-commit durable under
			// -fsync-journal.
			JournalPath:  filepath.Join(jdir, "journal"),
			FsyncJournal: cfg.FsyncJournal,
		},
		GCGrace:    time.Hour,
		GCInterval: time.Hour,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	// Seed the checkpoint set through a writer client, then record each
	// dataset's latest committed version for the explicit-version mode.
	seeder, _, err := c.NewClient(client.Config{
		StripeWidth: 2, ChunkSize: chunkSize, Replication: 1,
		Semantics: core.WriteOptimistic,
	}, device.Unshaped())
	if err != nil {
		return err
	}
	names := make([]string, datasets)
	latest := make([]core.VersionID, datasets)
	for d := 0; d < datasets; d++ {
		names[d] = fmt.Sprintf("rl.n%d", d)
		for t := 0; t < versionsPer; t++ {
			if _, err := writeOnce(seeder, fmt.Sprintf("rl.n%d.t%d", d, t), imageSize, appBlock); err != nil {
				seeder.Close()
				return err
			}
		}
		info, err := seeder.Stat(names[d])
		if err != nil {
			seeder.Close()
			return err
		}
		latest[d] = info.Versions[len(info.Versions)-1].Version
	}
	seeder.Close()

	fmt.Fprintf(cfg.Out, "Restart storm (§V read path): %d readers x %d datasets through a %d-manager router, cold vs warm chunk-map caches\n",
		readersSweep[len(readersSweep)-1], datasets, managers)
	fmt.Fprintf(cfg.Out, "%-9s %8s %6s %10s %12s %10s %14s %10s\n",
		"mode", "readers", "phase", "opens", "opens/s", "getMaps", "statVersions", "mgr hits")

	var cells []cell
	openOne := func(cl *client.Client, mode string, d int) error {
		var r *client.Reader
		var err error
		if mode == "version" {
			r, err = cl.Open(names[d], client.OpenOptions{Version: latest[d]})
		} else {
			r, err = cl.Open(names[d])
		}
		if err != nil {
			return err
		}
		if r.Size() != imageSize {
			r.Close()
			return fmt.Errorf("open %s: size %d, want %d", names[d], r.Size(), int64(imageSize))
		}
		return r.Close()
	}

	for _, mode := range []string{"version", "latest"} {
		for _, readers := range readersSweep {
			clients := make([]*client.Client, readers)
			for i := range clients {
				cl, _, err := c.NewClient(client.Config{
					StripeWidth: 2, ChunkSize: chunkSize, Replication: 1,
					Semantics: core.WriteOptimistic,
				}, device.Unshaped())
				if err != nil {
					return err
				}
				clients[i] = cl
			}

			for _, phase := range []string{"cold", "warm"} {
				rounds := cfg.Runs
				if phase == "cold" {
					// One pass defines cold; repetition would warm it.
					rounds = 1
				}
				before := c.Stats()
				start := time.Now()
				var wg sync.WaitGroup
				errCh := make(chan error, readers)
				for _, cl := range clients {
					wg.Add(1)
					go func(cl *client.Client) {
						defer wg.Done()
						for rep := 0; rep < rounds; rep++ {
							for d := 0; d < datasets; d++ {
								if err := openOne(cl, mode, d); err != nil {
									errCh <- err
									return
								}
							}
						}
					}(cl)
				}
				wg.Wait()
				close(errCh)
				for err := range errCh {
					return fmt.Errorf("restartload %s/%d/%s: %w", mode, readers, phase, err)
				}
				elapsed := time.Since(start)
				after := c.Stats()
				opens := int64(readers) * int64(datasets) * int64(rounds)
				cl := cell{
					Experiment: "restartload", Mode: mode, Readers: readers, Phase: phase,
					Opens:        opens,
					OpensPerSec:  float64(opens) / elapsed.Seconds(),
					GetMaps:      after.GetMaps - before.GetMaps,
					StatVersions: after.StatVersions - before.StatVersions,
					MgrCacheHits: after.MapCache.Hits - before.MapCache.Hits,
				}
				cells = append(cells, cl)
				fmt.Fprintf(cfg.Out, "%-9s %8d %6s %10d %12.0f %10d %14d %10d\n",
					mode, readers, phase, cl.Opens, cl.OpensPerSec, cl.GetMaps, cl.StatVersions, cl.MgrCacheHits)
			}
			for _, cl := range clients {
				cl.Close()
			}
		}
	}
	fmt.Fprintf(cfg.Out, "warm re-opens: explicit-version = zero manager RPCs, latest = one MStatVersion each;\n")
	fmt.Fprintf(cfg.Out, "cold opens share the manager's hot-map cache (one location sort per version, not per reader)\n")
	fmt.Fprintf(cfg.Out, "paper: read performance minimizes restart delays (§IV.A); 1-CPU boxes time-slice readers, see EXPERIMENTS.md\n\n")

	restartCells, err := restartRecoveryCells(cfg, jdir)
	if err != nil {
		return fmt.Errorf("restartload: recovery cells: %w", err)
	}

	if cfg.JSON != nil {
		enc := json.NewEncoder(cfg.JSON)
		for _, cl := range cells {
			if err := enc.Encode(cl); err != nil {
				return fmt.Errorf("restartload: json: %w", err)
			}
		}
		for _, rc := range restartCells {
			if err := enc.Encode(rc); err != nil {
				return fmt.Errorf("restartload: json: %w", err)
			}
		}
	}
	return nil
}

// restartCell records one metadata-plane restart measurement: how long the
// manager took to come back and how much journal it had to replay.
type restartCell struct {
	Experiment  string  `json:"experiment"` // "restartload"
	Mode        string  `json:"mode"`       // "restart-journal" | "restart-snapshot"
	Entries     int64   `json:"entriesReplayed"`
	Datasets    int     `json:"datasets"`
	RestartMs   float64 `json:"restartMs"`
	SnapshotSeq int64   `json:"snapshotSeq,omitempty"`
}

// restartRecoveryCells measures the manager's own restart latency — the
// §IV.A "minimize restart delays" goal applied to the metadata plane
// itself. A fixed synthetic history (64 datasets x 32 versions of
// 16-chunk checkpoints, the managerload driver, pruned to the two newest
// versions per dataset as it goes) is committed in-process;
// the manager then restarts twice from the same durable state: once with
// nothing but the journal (full replay), and once after catalog snapshots
// — the second of which truncates the journal by the lag-one rule — so
// recovery loads the newest snapshot and replays only the short suffix
// behind it. The smoke test gates that the snapshot restart replays
// strictly less and recovers the identical dataset count.
func restartRecoveryCells(cfg Config, jdir string) ([]restartCell, error) {
	const (
		rDatasets  = 64
		rVersions  = 32
		chunksPer  = 16
		rChunkSize = 4 << 10
	)
	rdir := filepath.Join(jdir, "restart")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return nil, err
	}
	mcfg := manager.Config{
		HeartbeatInterval:   time.Hour,
		ReplicationInterval: time.Hour,
		PruneInterval:       time.Hour,
		SessionTTL:          time.Hour,
		JournalPath:         filepath.Join(rdir, "journal"),
		FsyncJournal:        cfg.FsyncJournal,
	}
	seedBenefactors := func(m *manager.Manager) error {
		for i := 0; i < 8; i++ {
			req := proto.RegisterReq{
				ID:   core.NodeID(fmt.Sprintf("rr%d:1", i)),
				Addr: fmt.Sprintf("rr%d:1", i), Capacity: 1 << 40, Free: 1 << 40,
			}
			if err := m.Invoke(proto.MRegister, req, nil); err != nil {
				return err
			}
		}
		return nil
	}
	commitRound := func(m *manager.Manager, t, datasets int) error {
		for d := 0; d < datasets; d++ {
			if _, err := manager.DriveCheckpoint(m, fmt.Sprintf("rr.n%d.t%d", d, t), int64(d), t, chunksPer, rChunkSize, false); err != nil {
				return err
			}
		}
		return nil
	}
	deleteRound := func(m *manager.Manager, t, datasets int) error {
		for d := 0; d < datasets; d++ {
			req := proto.DeleteReq{Name: fmt.Sprintf("rr.n%d.t%d", d, t)}
			if err := m.Invoke(proto.MDelete, req, nil); err != nil {
				return err
			}
		}
		return nil
	}
	timedRestart := func() (*manager.Manager, float64, error) {
		start := time.Now()
		m, err := manager.New(mcfg)
		if err != nil {
			return nil, 0, err
		}
		return m, float64(time.Since(start).Microseconds()) / 1000, nil
	}

	// Build the history.
	m, err := manager.New(mcfg)
	if err != nil {
		return nil, err
	}
	if err := seedBenefactors(m); err != nil {
		m.Close()
		return nil, err
	}
	for t := 0; t < rVersions; t++ {
		if err := commitRound(m, t, rDatasets); err != nil {
			m.Close()
			return nil, err
		}
		// Checkpoint-storage churn: keep the two newest versions per
		// dataset, delete the rest — so the journal records the full
		// history while the final catalog holds only its tail. This is
		// the regime where a snapshot beats replay: replay must walk
		// every commit AND every delete to land on the small live state
		// a snapshot stores directly.
		if t >= 2 {
			if err := deleteRound(m, t-2, rDatasets); err != nil {
				m.Close()
				return nil, err
			}
		}
	}
	if err := m.Close(); err != nil {
		return nil, err
	}

	// Restart 1: the journal alone — replay from entry one.
	m2, jMs, err := timedRestart()
	if err != nil {
		return nil, err
	}
	jStats := m2.Stats()
	cells := []restartCell{{
		Experiment: "restartload", Mode: "restart-journal",
		Entries: jStats.JournalReplayed, Datasets: jStats.Datasets, RestartMs: jMs,
	}}

	// Snapshot the recovered catalog, commit a short tail, snapshot again
	// (truncating the journal past the first watermark), then a few more
	// commits that only the journal suffix carries.
	if err := seedBenefactors(m2); err != nil {
		m2.Close()
		return nil, err
	}
	if _, err := m2.Snapshot(); err != nil {
		m2.Close()
		return nil, err
	}
	if err := commitRound(m2, rVersions, 8); err != nil {
		m2.Close()
		return nil, err
	}
	if _, err := m2.Snapshot(); err != nil {
		m2.Close()
		return nil, err
	}
	if err := commitRound(m2, rVersions+1, 4); err != nil {
		m2.Close()
		return nil, err
	}
	if err := m2.Close(); err != nil {
		return nil, err
	}

	// Restart 2: newest snapshot + journal suffix.
	m3, sMs, err := timedRestart()
	if err != nil {
		return nil, err
	}
	sStats := m3.Stats()
	m3.Close()
	cells = append(cells, restartCell{
		Experiment: "restartload", Mode: "restart-snapshot",
		Entries: sStats.JournalReplayed, Datasets: sStats.Datasets, RestartMs: sMs,
		SnapshotSeq: sStats.SnapshotSeq,
	})

	fmt.Fprintf(cfg.Out, "metadata-plane restart (%d datasets, %d commits): full journal replay %d entries in %.1f ms;\n",
		jStats.Datasets, rDatasets*rVersions, jStats.JournalReplayed, jMs)
	fmt.Fprintf(cfg.Out, "snapshot + suffix replays %d entries in %.1f ms (snapshot watermark %d, journal truncated past the previous one)\n\n",
		sStats.JournalReplayed, sMs, sStats.SnapshotSeq)
	return cells, nil
}
