// Command stdchk-bench regenerates the paper's evaluation: every table
// and figure of §V, driven against the real stdchk stack with
// paper-calibrated device models.
//
// Usage:
//
//	stdchk-bench -list
//	stdchk-bench -exp table1            # one experiment
//	stdchk-bench -exp all -scale 64     # the full evaluation
//	stdchk-bench -exp fig2 -scale 16 -runs 5
//
// Scale divides the paper's data sizes (64 : the 1 GB test file becomes
// 16 MB). Bandwidth calibrations are never scaled, so the shape of every
// result is preserved; see EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"stdchk/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "stdchk-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("stdchk-bench", flag.ContinueOnError)
	var (
		exp       = fs.String("exp", "all", "experiment to run (see -list), or 'all'")
		scale     = fs.Int64("scale", 64, "divide paper data sizes by this factor")
		runs      = fs.Int("runs", 3, "repetitions per configuration")
		list      = fs.Bool("list", false, "list experiments and exit")
		ablations = fs.Bool("ablations", false, "run the design-choice ablation benches instead")
		jsonPath  = fs.String("json", "", "write machine-readable result records (JSON lines) to this file")
		fsyncJrnl = fs.Bool("fsync-journal", false, "run journaled experiments with group-commit fsync durability (managerload measures this variant side by side regardless)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-8s %s\n", r.Name, r.Title)
		}
		for _, r := range experiments.Ablations() {
			fmt.Printf("%-8s %s\n", r.Name, r.Title)
		}
		return nil
	}
	cfg := experiments.Config{
		Scale: *scale, Runs: *runs, Out: os.Stdout,
		FsyncJournal: *fsyncJrnl,
	}
	if *jsonPath != "" {
		jf, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *jsonPath, err)
		}
		defer jf.Close()
		cfg.JSON = jf
	}

	runAll := func(runners []experiments.Runner) error {
		for _, r := range runners {
			fmt.Printf("=== %s: %s ===\n", r.Name, r.Title)
			start := time.Now()
			if err := r.Run(cfg); err != nil {
				return fmt.Errorf("%s: %w", r.Name, err)
			}
			fmt.Printf("(%s completed in %v)\n\n", r.Name, time.Since(start).Round(time.Millisecond))
		}
		return nil
	}
	if *ablations {
		return runAll(experiments.Ablations())
	}
	if *exp == "all" {
		return runAll(experiments.All())
	}
	r, ok := experiments.Find(*exp)
	if !ok {
		r, ok = experiments.FindAblation(*exp)
	}
	if !ok {
		return fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	fmt.Printf("=== %s: %s ===\n", r.Name, r.Title)
	return r.Run(cfg)
}
