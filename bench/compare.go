package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// manifest is BENCHMARK.json: the contract a result is held against.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readManifest(path string) (*manifest, error) {
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", "../BENCHMARK.json"}
	}
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		var m manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &m, nil
	}
	return nil, errors.New("BENCHMARK.json not found; pass -manifest")
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// exactCounts must repeat digit for digit between two runs of one commit on
// the same seed, on the workloads with a single client (a second client
// makes the interleaving, and so the counts, vary).
var exactCounts = []struct {
	section, name string
}{
	{"end_to_end", "uploaded_per_logical"},
	{"per_layer", "manager.rpcs_per_ckpt"},
}

// compareFiles prints one row per (workload, end-to-end metric) and exits
// non-zero when b is worse than a by more than the metric's bound, when an
// exact count differs, or when either file has a failed operation. A row
// whose quartile spread exceeds the bound is marked unresolved: the rounds
// disagree by more than the difference the bound is meant to catch.
func compareFiles(manifestPath, pathA, pathB string, stdout, stderr io.Writer) int {
	m, err := readManifest(manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	a, err := readResult(pathA)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	b, err := readResult(pathB)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stdout, "a: %s  commit %s seed %d  %d cores  load %.2f\n", pathA, a.Env.Commit, a.Env.Seed, a.Env.NProc, a.Env.LoadAvg1)
	fmt.Fprintf(stdout, "b: %s  commit %s seed %d  %d cores  load %.2f\n", pathB, b.Env.Commit, b.Env.Seed, b.Env.NProc, b.Env.LoadAvg1)
	fmt.Fprintf(stdout, "%-11s %-22s %-6s %12s %25s %12s %25s %8s %6s  %s\n",
		"workload", "metric", "unit", "a", "a q1..q3", "b", "b q1..q3", "b vs a", "bound", "verdict")

	names := make([]string, 0, len(a.Workloads))
	for name := range a.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	bad := 0
	for _, name := range names {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Fprintf(stdout, "%-11s missing from b\n", name)
			bad++
			continue
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Fprintf(stdout, "%-11s failed operations: a %d of %d, b %d of %d\n", name, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
			bad++
		}
		for _, def := range m.EndToEnd {
			sa, oka := wa.EndToEnd[def.Name]
			sb, okb := wb.EndToEnd[def.Name]
			if !oka || !okb {
				fmt.Fprintf(stdout, "%-11s %-22s missing\n", name, def.Name)
				bad++
				continue
			}
			// worse > 0 means b is worse than a, as a share of a.
			worse := ratio(sb.Value-sa.Value, sa.Value)
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > def.Bound:
				verdict = "WORSE"
				bad++
			case sa.spread() > def.Bound || sb.spread() > def.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-11s %-22s %-6s %12.4f %25s %12.4f %25s %+7.1f%% %5.0f%%  %s\n",
				name, def.Name, def.Unit,
				sa.Value, fmt.Sprintf("%.4f..%.4f", sa.Q1, sa.Q3),
				sb.Value, fmt.Sprintf("%.4f..%.4f", sb.Q1, sb.Q3),
				100*ratio(sb.Value-sa.Value, sa.Value), 100*def.Bound, verdict)
		}
		if w := findWorkload(name); w == nil || w.clients != 1 || a.Env.Seed != b.Env.Seed {
			continue
		}
		for _, c := range exactCounts {
			va, vb := wa.EndToEnd[c.name], wb.EndToEnd[c.name]
			if c.section == "per_layer" {
				va, vb = wa.PerLayer[c.name], wb.PerLayer[c.name]
			}
			if va.Value != vb.Value {
				fmt.Fprintf(stdout, "%-11s %-22s exact count differs: a %v, b %v\n", name, c.name, va.Value, vb.Value)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "%d rows outside their bounds\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "every end-to-end metric within its bound; exact counts identical")
	return 0
}
