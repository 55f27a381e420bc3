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
		return nil
	}
	var selected []experiments.Runner
	for _, r := range experiments.All() {
		switch {
		case *ablations && r.Ablation,
			!*ablations && *exp == "all" && !r.Ablation,
			!*ablations && r.Name == *exp:
			selected = append(selected, r)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (use -list)", *exp)
	}
	var js *os.File
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *jsonPath, err)
		}
		defer f.Close()
		js = f
	}

	cfg := experiments.Config{Scale: *scale, Runs: *runs, FsyncJournal: *fsyncJrnl}
	for _, r := range selected {
		fmt.Printf("=== %s: %s ===\n", r.Name, r.Title)
		start := time.Now()
		tables, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Name, err)
		}
		if err := experiments.Print(os.Stdout, tables); err != nil {
			return err
		}
		if js != nil {
			if err := experiments.EncodeJSON(js, r.Name, tables); err != nil {
				return err
			}
		}
		fmt.Printf("(%s completed in %v)\n\n", r.Name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
