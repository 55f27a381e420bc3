// Command stdchk-manager runs the stdchk metadata manager: the soft-state
// benefactor registry, dataset catalog, replication scheduler, garbage
// collector and policy engine (paper §IV.A).
//
// Usage:
//
//	stdchk-manager -listen :9400
//	stdchk-manager -listen :9400 -journal /var/lib/stdchk/journal
//	stdchk-manager -listen :9400 -recover        # rebuild from benefactors
//
// Federated metadata plane (one process per member, identical member
// lists, each with its own index):
//
//	stdchk-manager -listen host0:9400 -federation host0:9400,host1:9400 -member-index 0
//	stdchk-manager -listen host1:9400 -federation host0:9400,host1:9400 -member-index 1
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stdchk/internal/faultpoint"
	"stdchk/internal/federation"
	"stdchk/internal/hashing"
	"stdchk/internal/manager"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stdchk-manager:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stdchk-manager", flag.ContinueOnError)
	var (
		listen      = fs.String("listen", "127.0.0.1:9400", "service address")
		heartbeat   = fs.Duration("heartbeat", 5*time.Second, "benefactor heartbeat interval")
		stripe      = fs.Int("stripe", 4, "default stripe width")
		replication = fs.Int("replication", 2, "default replication target")
		deadTimeout = fs.Duration("dead-timeout", 0, "heartbeat silence past which a suspect benefactor is declared dead and decommissioned — its chunk locations are dropped (journaled) and repair rebuilds from survivors (0 = 10x the node TTL, negative = never)")
		repairBytes = fs.Int64("repair-bytes-per-round", 0, "byte budget per replication-scheduler round, spent critical-band (single-replica chunks) first (0 = unbudgeted)")
		fed         = fs.String("federation", "", "comma-separated federation member addresses; this process serves the -member-index'th partition")
		memberIdx   = fs.Int("member-index", 0, "this manager's index in the -federation member list")
		journal     = fs.String("journal", "", "metadata journal path (optional)")
		fsyncJrnl   = fs.Bool("fsync-journal", false, "group-commit durability: every commit blocks until its journal batch is fsynced; concurrent commits share one fsync, so no acknowledged commit can be lost to a crash (off, a process crash can lose a small acknowledged-but-unjournaled window)")
		snapEvery   = fs.Duration("snapshot-interval", 0, "write periodic catalog snapshots and truncate the journal behind them (0 = snapshots off; restart then replays the full journal)")
		recover     = fs.Bool("recover", false, "start in recovery mode: rebuild metadata from benefactor-held chunk-map replicas")
		maxPending  = fs.Int("max-pending", 0, "admission bound: max concurrently pending alloc/extend/commit ops before the manager sheds with a typed retry-after (0 = unbounded)")
		maxInflight = fs.Int("max-conn-inflight", 0, "per-connection budget for concurrently dispatched session-tagged frames; excess frames are shed with retry-after (0 = default)")
		retryAfter  = fs.Duration("retry-after", 0, "backoff hint carried in shed responses (0 = default 2ms)")
		quiet       = fs.Bool("quiet", false, "suppress operational logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	members := federation.SplitMembers(*fed)
	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "", log.LstdFlags)
	}
	// Fault-injection harness: STDCHK_FAULTPOINTS="manager.journal.fsync=crash"
	// arms named faults for recovery drills; unset, this is a no-op.
	if err := faultpoint.InitFromEnv(); err != nil {
		return err
	}
	m, err := manager.New(manager.Config{
		ListenAddr:          *listen,
		HeartbeatInterval:   *heartbeat,
		DefaultStripeWidth:  *stripe,
		DefaultReplication:  *replication,
		DeadTimeout:         *deadTimeout,
		RepairBytesPerRound: *repairBytes,
		FederationMembers:   members,
		MemberIndex:         *memberIdx,
		JournalPath:         *journal,
		FsyncJournal:        *fsyncJrnl,
		SnapshotInterval:    *snapEvery,
		Recover:             *recover,
		MaxPendingOps:       *maxPending,
		MaxConnInflight:     *maxInflight,
		RetryAfterHint:      *retryAfter,
		WritePriority:       true,
		Logger:              logger,
	})
	if err != nil {
		return err
	}
	if len(members) > 1 {
		fmt.Printf("stdchk manager serving on %s (federation member %d of %d, sha1 %s)\n", m.Addr(), *memberIdx, len(members), hashing.SHA1Impl())
	} else {
		fmt.Printf("stdchk manager serving on %s (sha1 %s)\n", m.Addr(), hashing.SHA1Impl())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return m.Close()
}
