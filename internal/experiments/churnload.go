package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"stdchk/internal/client"
	"stdchk/internal/core"
	"stdchk/internal/device"
	"stdchk/internal/grid"
	"stdchk/internal/manager"
	"stdchk/internal/proto"
)

// ChurnLoad drives the node-lifecycle and repair machinery with the
// churn a desktop grid actually produces (paper §III: donated desktops
// leave — reboots, shutdowns, withdrawals — and the system must mask it).
// A disk-backed cluster of 6 donors holds a mixed dataset population —
// replication-2 and replication-3 files — so that a single death creates
// both repair bands at once: the dead donor's repl-2 chunks drop to one
// live replica (critical), its repl-3 chunks to two (bulk).
//
// Three churn events per cycle, each gated on zero loss (every dataset
// restored byte-identical against its written image while the failure is
// still in effect):
//
//   - flap: a donor dies and restarts disk-intact within the node TTL.
//     Rejoin reconciliation (the registration inventory) must re-adopt
//     its replicas — the heal is metadata-only.
//   - death: a donor dies for good. Repair re-replicates from survivors
//     under the per-round byte budget; the timeline of on-demand
//     under-replication scans must show the critical band draining to
//     zero while bulk repairs are still outstanding (priority proof),
//     and past DeadTimeout the manager must decommission the node.
//   - rejoin: the dead donor returns disk-intact. Heartbeats from a
//     decommissioned node are rejected, so it must heal through
//     re-registration, bringing the pool back to full strength for the
//     next cycle.
//
// Config.Runs sets the number of death+rejoin cycles (the time-to-repair
// distribution); Config.Scale has no effect — the shape is fixed so the
// band arithmetic (budget rounds per band) is preserved.
func ChurnLoad(cfg Config) error {
	cfg = cfg.withDefaults()
	const (
		donors      = 6
		chunkSize   = 128 << 10
		fileSize    = 2 << 20 // 16 chunks per file
		repl2Files  = 3
		repl3Files  = 2
		hbInterval  = 50 * time.Millisecond
		nodeTTL     = 400 * time.Millisecond
		deadTimeout = 1200 * time.Millisecond
		replPeriod  = 80 * time.Millisecond
		byteBudget  = 512 << 10 // 4 chunks/round: several rounds per band
		pollEvery   = 10 * time.Millisecond
		healWait    = 30 * time.Second
	)

	type cell struct {
		Experiment      string  `json:"experiment"`
		Phase           string  `json:"phase"` // "flap" | "death" | "rejoin"
		Run             int     `json:"run"`
		Donor           string  `json:"donor"`
		CriticalClearMs float64 `json:"criticalClearMs"` // kill -> critical band empty
		RepairedMs      float64 `json:"repairedMs"`      // kill -> all chunks at target
		CopiedBytes     int64   `json:"copiedBytes"`
		Failed          int64   `json:"failed"`
		Reconciled      int64   `json:"reconciled"`
		Decommissions   int64   `json:"decommissions"`
		ZeroLoss        bool    `json:"zeroLoss"`
	}

	dir, err := os.MkdirTemp("", "stdchk-churnload")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	c, err := grid.Start(grid.Options{
		Benefactors:       donors,
		BenefactorProfile: device.Unshaped(),
		DiskBacked:        true,
		DiskDir:           dir,
		Manager: manager.Config{
			HeartbeatInterval:   hbInterval,
			NodeTTL:             nodeTTL,
			DeadTimeout:         deadTimeout,
			ReplicationInterval: replPeriod,
			RepairBytesPerRound: byteBudget,
		},
		GCGrace:    time.Hour, // churn must not be mistaken for garbage
		GCInterval: time.Hour,
	})
	if err != nil {
		return err
	}
	defer c.Close()

	// Stage the population: unique pseudo-random images so no two chunks
	// dedup into one stored replica, split across two replication targets.
	type dataset struct {
		name string
		data []byte
	}
	var sets []dataset
	stage := func(repl, count, base int) error {
		cl, _, err := c.NewClient(client.Config{
			StripeWidth: 4, ChunkSize: chunkSize, Replication: repl,
			Semantics: core.WriteOptimistic,
		}, device.Unshaped())
		if err != nil {
			return err
		}
		defer cl.Close()
		for i := 0; i < count; i++ {
			name := fmt.Sprintf("churn-r%d-%d.n1.t0", repl, i)
			data := readloadImage(uint64(base+i)*0x9E3779B97F4A7C15+5, fileSize)
			w, err := cl.Create(name)
			if err == nil {
				if _, err = w.Write(data); err == nil {
					if err = w.Close(); err == nil {
						err = w.Wait()
					}
				}
			}
			if err != nil {
				return fmt.Errorf("churnload: stage %s: %w", name, err)
			}
			sets = append(sets, dataset{name: name, data: data})
		}
		return nil
	}
	if err := stage(2, repl2Files, 0); err != nil {
		return err
	}
	if err := stage(3, repl3Files, 100); err != nil {
		return err
	}

	// awaitHealed polls the on-demand under-replication scan until every
	// chunk is back at target, recording when the critical band cleared.
	// With expectDamage it first waits for the failure to become visible
	// (the TTL sweep must mark the victim suspect before its replicas stop
	// counting as live) — otherwise a scan taken in that window reads as
	// already-healed.
	awaitHealed := func(since time.Time, expectDamage bool) (criticalClear, repaired float64, sawSplit bool, err error) {
		deadline := time.Now().Add(healWait)
		for expectDamage {
			if crit, bulk := c.Manager.UnderReplicated(); crit+bulk > 0 {
				break
			}
			if time.Now().After(deadline) {
				return 0, 0, false, fmt.Errorf("churnload: failure never became visible to the repair scan in %v", healWait)
			}
			time.Sleep(pollEvery)
		}
		sawCritical := false
		for {
			crit, bulk := c.Manager.UnderReplicated()
			now := time.Since(since)
			if crit > 0 {
				sawCritical = true
			}
			if crit == 0 && bulk > 0 && sawCritical && criticalClear == 0 {
				criticalClear = float64(now.Microseconds()) / 1000
				sawSplit = true
			}
			if crit == 0 && bulk == 0 {
				if criticalClear == 0 {
					criticalClear = float64(now.Microseconds()) / 1000
				}
				return criticalClear, float64(now.Microseconds()) / 1000, sawSplit, nil
			}
			if time.Now().After(deadline) {
				return 0, 0, false, fmt.Errorf("churnload: repair did not converge in %v (critical=%d bulk=%d)", healWait, crit, bulk)
			}
			time.Sleep(pollEvery)
		}
	}
	if _, _, _, err := awaitHealed(time.Now(), false); err != nil {
		return fmt.Errorf("churnload: staging never reached replication targets: %w", err)
	}

	// verifyAll restores every dataset through a fresh client (fresh
	// address cache: flapped donors listen on new ports) and compares
	// byte-for-byte — the zero-loss gate.
	verifyAll := func() error {
		cl, _, err := c.NewClient(client.Config{ChunkSize: chunkSize}, device.Unshaped())
		if err != nil {
			return err
		}
		defer cl.Close()
		for _, ds := range sets {
			r, err := cl.Open(ds.name)
			if err != nil {
				return fmt.Errorf("churnload: open %s: %w", ds.name, err)
			}
			got, err := r.ReadAll()
			r.Close()
			if err != nil {
				return fmt.Errorf("churnload: read %s: %w", ds.name, err)
			}
			if !bytes.Equal(got, ds.data) {
				return fmt.Errorf("churnload: %s restored with wrong bytes (DATA LOSS)", ds.name)
			}
		}
		return nil
	}

	fmt.Fprintf(cfg.Out, "Churn: %d disk-backed donors, %d repl-2 + %d repl-3 files (%d KB chunks), TTL %v, dead %v, budget %d KB/round\n",
		donors, repl2Files, repl3Files, chunkSize>>10, nodeTTL, deadTimeout, byteBudget>>10)
	fmt.Fprintf(cfg.Out, "%-8s %-4s %-9s %14s %12s %12s %10s %9s\n",
		"phase", "run", "donor", "critClear(ms)", "repaired(ms)", "copied(B)", "reconciled", "zeroLoss")

	var cells []cell
	repairBefore := func() (int64, int64, int64, int64) {
		s := c.Manager.Stats().Counters
		return s[proto.CtrRepairCopiedBytes].Value, s[proto.CtrRepairFailed].Value,
			s[proto.CtrRepairReconciled].Value, s[proto.CtrDecommissions].Value
	}
	emit := func(cl cell) {
		cells = append(cells, cl)
		fmt.Fprintf(cfg.Out, "%-8s %-4d %-9s %14.1f %12.1f %12d %10d %9v\n",
			cl.Phase, cl.Run, cl.Donor, cl.CriticalClearMs, cl.RepairedMs, cl.CopiedBytes, cl.Reconciled, cl.ZeroLoss)
	}

	// --- flap: kill + disk-intact restart inside the TTL ---------------
	flapDonor := 0
	copied0, _, rec0, _ := repairBefore()
	if err := c.StopBenefactor(flapDonor); err != nil {
		return err
	}
	killT := time.Now()
	if _, err := c.RestartBenefactor(flapDonor); err != nil {
		return err
	}
	// The rejoin is complete once the registration's inventory reconciled.
	for deadline := time.Now().Add(healWait); ; {
		if _, _, rec, _ := repairBefore(); rec > rec0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("churnload: flap rejoin never reconciled")
		}
		time.Sleep(pollEvery)
	}
	if err := c.AwaitOnline(donors, healWait); err != nil {
		return err
	}
	if _, _, _, err := awaitHealed(killT, false); err != nil {
		return err
	}
	if err := verifyAll(); err != nil {
		return err
	}
	copied1, _, rec1, _ := repairBefore()
	emit(cell{
		Experiment: "churnload", Phase: "flap", Run: 0, Donor: "benef-0",
		RepairedMs:  float64(time.Since(killT).Microseconds()) / 1000,
		CopiedBytes: copied1 - copied0, Reconciled: rec1 - rec0, ZeroLoss: true,
	})

	// --- death + rejoin cycles -----------------------------------------
	for run := 0; run < cfg.Runs; run++ {
		victim := 1 + run%(donors-1) // spare donor 0, vary the victim
		donor := fmt.Sprintf("benef-%d", victim)
		copied0, failed0, rec0, dec0 := repairBefore()

		if err := c.StopBenefactor(victim); err != nil {
			return err
		}
		killT := time.Now()
		critMs, repMs, sawSplit, err := awaitHealed(killT, true)
		if err != nil {
			return err
		}
		if !sawSplit {
			return fmt.Errorf("churnload: run %d: never observed critical band empty while bulk repairs outstanding — priority repair did not engage", run)
		}
		if critMs > repMs {
			return fmt.Errorf("churnload: run %d: critical band cleared at %.1f ms, after full repair at %.1f ms", run, critMs, repMs)
		}
		// Wait out the dead timeout: the silent donor must be declared
		// dead and decommissioned, not linger as a suspect forever.
		for deadline := time.Now().Add(healWait); ; {
			if _, _, _, dec := repairBefore(); dec > dec0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("churnload: run %d: %s never decommissioned past DeadTimeout", run, donor)
			}
			time.Sleep(pollEvery)
		}
		// Zero-loss while the donor is still dead: all data must restore
		// from the survivors alone.
		if err := verifyAll(); err != nil {
			return fmt.Errorf("churnload: run %d death: %w", run, err)
		}
		copied1, failed1, _, dec1 := repairBefore()
		if copied1 == copied0 {
			return fmt.Errorf("churnload: run %d: death repaired with zero copied bytes", run)
		}
		emit(cell{
			Experiment: "churnload", Phase: "death", Run: run, Donor: donor,
			CriticalClearMs: critMs, RepairedMs: repMs,
			CopiedBytes: copied1 - copied0, Failed: failed1 - failed0,
			Decommissions: dec1 - dec0, ZeroLoss: true,
		})

		// Rejoin: the decommissioned donor returns with its disk intact.
		_, _, rec0, _ = repairBefore()
		if _, err := c.RestartBenefactor(victim); err != nil {
			return err
		}
		rejoinT := time.Now()
		if err := c.AwaitOnline(donors, healWait); err != nil {
			return fmt.Errorf("churnload: run %d: dead donor %s could not rejoin: %w", run, donor, err)
		}
		if _, _, _, err := awaitHealed(rejoinT, false); err != nil {
			return err
		}
		if err := verifyAll(); err != nil {
			return fmt.Errorf("churnload: run %d rejoin: %w", run, err)
		}
		_, _, rec1, _ := repairBefore()
		emit(cell{
			Experiment: "churnload", Phase: "rejoin", Run: run, Donor: donor,
			RepairedMs: float64(time.Since(rejoinT).Microseconds()) / 1000,
			Reconciled: rec1 - rec0, ZeroLoss: true,
		})
	}

	fmt.Fprintf(cfg.Out, "flap heals by inventory reconciliation (no copies); death repairs critical-first under the byte budget, then decommissions; rejoin re-adopts surviving replicas\n")
	fmt.Fprintf(cfg.Out, "paper: §IV.A data replication + soft-state registration mask donation churn; every restore above was byte-identical\n\n")

	if cfg.JSON != nil {
		enc := json.NewEncoder(cfg.JSON)
		for _, cl := range cells {
			if err := enc.Encode(cl); err != nil {
				return fmt.Errorf("churnload: json: %w", err)
			}
		}
	}
	return nil
}
