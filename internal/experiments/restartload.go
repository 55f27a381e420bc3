package experiments

import (
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
//   - latest: "newest version" opens. A warm client sends one MGetMap
//     naming the version it holds; the owner answers without a map (and
//     without building one) while that is still the newest, and the
//     client reuses its cached map.
//
// The table carries the per-phase manager RPC deltas (getMaps,
// statVersions), so the zero-RPC warm-path claim is asserted, not eyeballed
// (TestRestartLoadSmoke gates it in CI). The cache-off baseline, where
// every open pays a full MGetMap, is a historical row in EXPERIMENTS.md.
//
// Like managerload/fedload the shape is fixed (Config.Scale has no
// effect): 2 federated managers over real sockets, 8 datasets x 2
// versions of 256 KB in 32 KB chunks.
func RestartLoad(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	const (
		managers    = 2
		datasets    = 8
		versionsPer = 2
		imageSize   = 256 << 10
		chunkSize   = 32 << 10
	)
	readersSweep := []int{4, 16}

	jdir, err := os.MkdirTemp("", "stdchk-restartload")
	if err != nil {
		return nil, err
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
		return nil, err
	}
	defer c.Close()

	// Seed the checkpoint set through a writer client, then record each
	// dataset's latest committed version for the explicit-version mode.
	seeder, _, err := c.NewClient(client.Config{
		StripeWidth: 2, ChunkSize: chunkSize, Replication: 1,
		Semantics: core.WriteOptimistic,
	}, device.Unshaped())
	if err != nil {
		return nil, err
	}
	names := make([]string, datasets)
	latest := make([]core.VersionID, datasets)
	for d := 0; d < datasets; d++ {
		names[d] = fmt.Sprintf("rl.n%d", d)
		for t := 0; t < versionsPer; t++ {
			if _, err := writeOnce(seeder, fmt.Sprintf("rl.n%d.t%d", d, t), imageSize, appBlock); err != nil {
				seeder.Close()
				return nil, err
			}
		}
		info, err := seeder.Stat(names[d])
		if err != nil {
			seeder.Close()
			return nil, err
		}
		latest[d] = info.Versions[len(info.Versions)-1].Version
	}
	seeder.Close()

	t := Table{
		Name: "opens",
		Title: fmt.Sprintf("Restart storm (§V read path): %d readers x %d datasets through a %d-manager router, cold vs warm chunk-map caches",
			readersSweep[len(readersSweep)-1], datasets, managers),
		Keys: []string{"mode", "readers", "phase"},
		Columns: []Column{
			col("opens", "", 0), col("opens/s", "1/s", 0), col("getMaps", "", 0), col("statVersions", "", 0),
		},
	}
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
					return nil, err
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
					return nil, fmt.Errorf("restartload %s/%d/%s: %w", mode, readers, phase, err)
				}
				elapsed := time.Since(start)
				after := c.Stats()
				opens := int64(readers) * int64(datasets) * int64(rounds)
				t.add(labels(mode, readers, phase), float64(opens), float64(opens)/elapsed.Seconds(),
					float64(after.Ops[proto.MGetMap].Count-before.Ops[proto.MGetMap].Count),
					float64(after.Ops[proto.MStatVersion].Count-before.Ops[proto.MStatVersion].Count))
			}
			for _, cl := range clients {
				cl.Close()
			}
		}
	}
	t.note("warm re-opens: explicit-version = zero manager RPCs, latest = one MGetMap (unchanged reply) each")
	t.note("paper: read performance minimizes restart delays (§IV.A); 1-CPU boxes time-slice readers, see EXPERIMENTS.md")

	recovery, err := restartRecovery(cfg, jdir)
	if err != nil {
		return nil, fmt.Errorf("restartload: recovery cells: %w", err)
	}
	return []Table{t, recovery}, nil
}

// restartRecovery measures the manager's own restart latency — the
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
func restartRecovery(cfg Config, jdir string) (Table, error) {
	const (
		rDatasets  = 64
		rVersions  = 32
		chunksPer  = 16
		rChunkSize = 4 << 10
	)
	rdir := filepath.Join(jdir, "restart")
	if err := os.MkdirAll(rdir, 0o755); err != nil {
		return Table{}, err
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
		invoke := func(op, _ string, req, resp interface{}) error { return m.Invoke(op, req, resp) }
		for d := 0; d < datasets; d++ {
			if _, err := manager.DriveCheckpoint(invoke, fmt.Sprintf("rr.n%d.t%d", d, t), int64(d), t, chunksPer, rChunkSize, false); err != nil {
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
		return Table{}, err
	}
	if err := seedBenefactors(m); err != nil {
		m.Close()
		return Table{}, err
	}
	for t := 0; t < rVersions; t++ {
		if err := commitRound(m, t, rDatasets); err != nil {
			m.Close()
			return Table{}, err
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
				return Table{}, err
			}
		}
	}
	if err := m.Close(); err != nil {
		return Table{}, err
	}

	// Restart 1: the journal alone — replay from entry one.
	m2, jMs, err := timedRestart()
	if err != nil {
		return Table{}, err
	}
	jStats := m2.Stats().Counters

	// Snapshot the recovered catalog, commit a short tail, snapshot again
	// (truncating the journal past the first watermark), then a few more
	// commits that only the journal suffix carries.
	if err := seedBenefactors(m2); err != nil {
		m2.Close()
		return Table{}, err
	}
	if _, err := m2.Snapshot(); err != nil {
		m2.Close()
		return Table{}, err
	}
	if err := commitRound(m2, rVersions, 8); err != nil {
		m2.Close()
		return Table{}, err
	}
	if _, err := m2.Snapshot(); err != nil {
		m2.Close()
		return Table{}, err
	}
	if err := commitRound(m2, rVersions+1, 4); err != nil {
		m2.Close()
		return Table{}, err
	}
	if err := m2.Close(); err != nil {
		return Table{}, err
	}

	// Restart 2: newest snapshot + journal suffix.
	m3, sMs, err := timedRestart()
	if err != nil {
		return Table{}, err
	}
	sStats := m3.Stats().Counters
	m3.Close()

	t := Table{
		Name:  "recovery",
		Title: fmt.Sprintf("Metadata-plane restart (%d datasets, %d commits): full journal replay vs snapshot + suffix", rDatasets, rDatasets*rVersions),
		Keys:  []string{"mode"},
		Columns: []Column{
			col("entries replayed", "", 0), col("datasets", "", 0), col("restart", "ms", 1), col("snapshot watermark", "", 0),
		},
	}
	t.add(labels("restart-journal"), float64(jStats[proto.CtrJournalReplayed].Value), float64(jStats[proto.CtrDatasets].Value), jMs, 0)
	t.add(labels("restart-snapshot"), float64(sStats[proto.CtrJournalReplayed].Value), float64(sStats[proto.CtrDatasets].Value), sMs,
		float64(sStats[proto.CtrSnapshotSeq].Value))
	t.note("snapshot + suffix replays only the entries past the newest snapshot's watermark; the journal is truncated past the previous one")
	return t, nil
}
