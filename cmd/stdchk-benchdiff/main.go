// Command stdchk-benchdiff compares two `go test -bench -benchmem` outputs
// and fails when a hot-path benchmark's allocs/op regresses beyond a
// threshold. CI's bench-compare job runs the benchmarks on the merge-base
// and on the PR head, then gates the delta here; benchstat renders the
// human-readable report alongside.
//
// Usage:
//
//	stdchk-benchdiff -base base.txt -head head.txt [-max-allocs-regress 30]
//
// Benchmarks present on only one side are reported but never gate (new
// benchmarks have no baseline; removed ones have no head). Multiple runs
// of one benchmark are averaged.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "stdchk-benchdiff:", err)
		os.Exit(1)
	}
}

func run(args []string, out *os.File) error {
	fs := flag.NewFlagSet("stdchk-benchdiff", flag.ContinueOnError)
	var (
		basePath  = fs.String("base", "", "bench output of the merge-base")
		headPath  = fs.String("head", "", "bench output of the PR head")
		maxAllocs = fs.Float64("max-allocs-regress", 30, "fail when allocs/op grows more than this percentage")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *headPath == "" {
		return fmt.Errorf("both -base and -head are required")
	}
	base, err := parseFile(*basePath)
	if err != nil {
		return err
	}
	head, err := parseFile(*headPath)
	if err != nil {
		return err
	}

	names := make([]string, 0, len(head))
	for name := range head {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(out, "%-40s %14s %14s %10s\n", "benchmark", "base allocs/op", "head allocs/op", "delta")
	var failures []string
	for _, name := range names {
		h := head[name]
		b, ok := base[name]
		if !ok {
			fmt.Fprintf(out, "%-40s %14s %14.1f %10s\n", name, "(new)", h.AllocsPerOp, "-")
			continue
		}
		delta := 0.0
		if b.AllocsPerOp > 0 {
			delta = 100 * (h.AllocsPerOp - b.AllocsPerOp) / b.AllocsPerOp
		} else if h.AllocsPerOp > 0 {
			delta = 100
		}
		fmt.Fprintf(out, "%-40s %14.1f %14.1f %9.1f%%\n", name, b.AllocsPerOp, h.AllocsPerOp, delta)
		if delta > *maxAllocs {
			failures = append(failures,
				fmt.Sprintf("%s: allocs/op %.1f -> %.1f (+%.1f%% > %.0f%%)", name, b.AllocsPerOp, h.AllocsPerOp, delta, *maxAllocs))
		}
	}
	for name := range base {
		if _, ok := head[name]; !ok {
			fmt.Fprintf(out, "%-40s %14.1f %14s %10s\n", name, base[name].AllocsPerOp, "(gone)", "-")
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("allocation regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

// result is one benchmark's averaged metrics.
type result struct {
	NsPerOp     float64
	BytesPerOp  float64
	AllocsPerOp float64
	runs        int
}

// parseFile reads a `go test -bench` output file into averaged results
// keyed by benchmark name (the -<GOMAXPROCS> suffix stripped).
func parseFile(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]*result)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		for name, r := range parseLine(sc.Text()) {
			agg, exists := out[name]
			if !exists {
				out[name] = r
				continue
			}
			// Running average across repetitions.
			n := float64(agg.runs)
			agg.NsPerOp = (agg.NsPerOp*n + r.NsPerOp) / (n + 1)
			agg.BytesPerOp = (agg.BytesPerOp*n + r.BytesPerOp) / (n + 1)
			agg.AllocsPerOp = (agg.AllocsPerOp*n + r.AllocsPerOp) / (n + 1)
			agg.runs++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// parseLine parses one benchmark result line into results keyed by
// benchmark name (none for any other line), e.g.
//
//	BenchmarkWireFrame/meta=128-4  100  1234 ns/op  56 B/op  7 allocs/op
//
// An allocation count a benchmark reports with b.ReportMetric under a unit
// ending in "-allocs/op" (say "ckpt-allocs/op") is a result of its own,
// keyed "<name> <unit>", and gates like allocs/op.
func parseLine(line string) map[string]*result {
	fields := strings.Fields(line)
	if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
		return nil
	}
	name := fields[0]
	// Strip the trailing -<GOMAXPROCS> so runs on different machines
	// compare by benchmark identity.
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	out := make(map[string]*result)
	r := &result{runs: 1}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch unit := fields[i+1]; {
		case unit == "ns/op":
			r.NsPerOp = v
			out[name] = r
		case unit == "B/op":
			r.BytesPerOp = v
			out[name] = r
		case unit == "allocs/op":
			r.AllocsPerOp = v
			out[name] = r
		case strings.HasSuffix(unit, "-allocs/op"):
			out[name+" "+unit] = &result{AllocsPerOp: v, runs: 1}
		}
	}
	return out
}
