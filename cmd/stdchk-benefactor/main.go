// Command stdchk-benefactor runs a storage donor node: it contributes
// disk space to a stdchk pool, registers with the manager, serves chunk
// requests, executes replication copies, and garbage-collects orphaned
// chunks (paper §IV.A).
//
// Usage:
//
//	stdchk-benefactor -manager host:9400 -dir /scratch/stdchk -capacity 10737418240
//	stdchk-benefactor -manager host0:9400,host1:9400   # federated plane: register with every member
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stdchk/internal/benefactor"
	"stdchk/internal/core"
	"stdchk/internal/hashing"
	"stdchk/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stdchk-benefactor:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stdchk-benefactor", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:0", "chunk service address")
		mgr      = fs.String("manager", "127.0.0.1:9400", "manager address, or comma-separated federation member list")
		dir      = fs.String("dir", "", "chunk directory (empty = in-memory)")
		capacity = fs.Int64("capacity", 0, "contributed bytes (0 = unlimited)")
		id       = fs.String("id", "", "node identity (default: listen address)")
		gcEvery  = fs.Duration("gc-interval", time.Minute, "garbage collection interval")
		gcGrace  = fs.Duration("gc-grace", 10*time.Minute, "age before a chunk becomes a GC candidate; keep above the longest write session")
		scrub    = fs.Duration("scrub-interval", 0, "background integrity scrub pace: each tick re-hashes a batch of stored chunks against their content addresses, quarantining and reporting corrupt replicas (0 = scrubbing off)")
		scrubN   = fs.Int("scrub-batch", 0, "chunks verified per scrub tick (0 = default 16)")
		quiet    = fs.Bool("quiet", false, "suppress operational logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var logger *log.Logger
	if !*quiet {
		logger = log.New(os.Stderr, "", log.LstdFlags)
	}
	cfg := benefactor.Config{
		ID:            core.NodeID(*id),
		ListenAddr:    *listen,
		ManagerAddr:   *mgr,
		Capacity:      *capacity,
		GCInterval:    *gcEvery,
		GCGrace:       *gcGrace,
		ScrubInterval: *scrub,
		ScrubBatch:    *scrubN,
		Logger:        logger,
	}
	if *dir != "" {
		st, err := store.OpenDisk(*dir, *capacity, nil)
		if err != nil {
			return err
		}
		cfg.Store = st
	}
	b, err := benefactor.New(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("stdchk benefactor %s serving on %s (manager %s, sha1 %s)\n", b.ID(), b.Addr(), *mgr, hashing.SHA1Impl())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down")
	return b.Close()
}
