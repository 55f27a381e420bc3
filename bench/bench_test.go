package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode holds BENCHMARK.json and the tables in this
// package together: same workloads, same metric names and units, and the
// limits the benchmark contract sets.
func TestManifestMatchesCode(t *testing.T) {
	m := loadManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest lists %d workloads, code has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %q differs from code %q (or its why)", i, m.Workloads[i].Name, w.name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
		if w.clients > 2 {
			t.Errorf("workload %s: %d client goroutines exceed the 2 cores the benchmark is sized for", w.name, w.clients)
		}
	}
	check := func(section string, got []manifestMetric, want []metricDef, limit int) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: manifest has %d metrics, code %d, limit %d", section, len(got), len(want), limit)
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit {
				t.Errorf("%s[%d]: manifest %s (%s), code %s (%s)", section, i, g.Name, g.Unit, d.name, d.unit)
			}
			if !nameRE.MatchString(g.Name) {
				t.Errorf("%s: name %q is outside the contract's alphabet", section, g.Name)
			}
			if g.Better != "higher" && g.Better != "lower" {
				t.Errorf("%s %s: better is %q", section, g.Name, g.Better)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEndDefs, 16)
	check("per_layer", m.PerLayer, perLayerDefs, 128)
	setup := false
	for _, e := range m.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Name == "setup_s" {
			setup = e.Unit == "s" && e.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", m.RunSeconds)
	}
}

// driverOutput runs one driver-style invocation in -quick mode and decodes
// the last line of its standard output.
func driverOutput(t *testing.T, workload, trace string) driverResult {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"-quick", "-tmp", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s\n%s", workload, trace, code, stderr.String(), stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res driverResult
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%s trace %s: last line is not the result object: %v", workload, trace, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s trace %s: correct=%v attempted=%d failed=%d", workload, trace, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func sameNames(t *testing.T, label string, got map[string]driverMetric, want []manifestMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d metrics, manifest lists %d", label, len(got), len(want))
	}
	for _, w := range want {
		g, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", label, w.Name)
		case g.Unit != w.Unit:
			t.Errorf("%s: %s emitted in %s, manifest says %s", label, w.Name, g.Unit, w.Unit)
		case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
			t.Errorf("%s: %s is %v", label, w.Name, g.Value)
		}
	}
}

// TestDriverRuns makes the driver's two kinds of run on every workload and
// checks that exactly the manifest's names come out, and that no
// end-to-end metric reads zero.
func TestDriverRuns(t *testing.T) {
	m := loadManifest(t)
	for _, w := range workloads {
		res := driverOutput(t, w.name, "0")
		sameNames(t, w.name+" end_to_end", res.Metrics, m.EndToEnd)
		for name, v := range res.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, name, v.Value)
			}
		}
		if w.name == "bulk_1m" {
			for _, name := range []string{"uploaded_per_logical", "stored_per_logical"} {
				if v := res.Metrics[name].Value; v != 1 {
					t.Errorf("bulk_1m %s = %v, unique images must read exactly 1", name, v)
				}
			}
		}
	}
	res := driverOutput(t, "incr_blcr", "1")
	sameNames(t, "incr_blcr per_layer", res.Metrics, m.PerLayer)
}

// TestFullSetTraceAndCompare runs all four workloads, untraced then traced,
// and checks the result file, the span files and -compare.
func TestFullSetTraceAndCompare(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out", "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-seed", "4", "-out", out, "-tmp", filepath.Join(dir, "tmp")}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stderr.String(), stdout.String())
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Env.NProc < 1 || res.Env.GoVersion == "" || res.Env.Seed != 4 {
		t.Errorf("environment record incomplete: %+v", res.Env)
	}
	for _, w := range workloads {
		wr := res.Workloads[w.name]
		if wr == nil || len(wr.EndToEnd) != len(endToEndDefs) || len(wr.PerLayer) != len(perLayerDefs) {
			t.Fatalf("%s: result incomplete", w.name)
		}
		sum := 0.0
		for name, s := range wr.PerLayer {
			if strings.HasPrefix(name, "share.") {
				sum += s.Value
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%s: share.* sums to %v, want 1", w.name, sum)
		}
		checkSpans(t, filepath.Join(dir, "out", "trace-"+w.name+".jsonl"), w.name)
	}

	// A file agrees with itself; a copy with one metric pushed past its
	// bound does not.
	manifestPath := "../BENCHMARK.json"
	if code := compareFiles(manifestPath, out, out, &stdout, &stderr); code != 0 {
		t.Errorf("comparing a result with itself exits %d", code)
	}
	s := res.Workloads["lan_64k"].EndToEnd["restore_mbps"]
	s.Value /= 2
	res.Workloads["lan_64k"].EndToEnd["restore_mbps"] = s
	worse := filepath.Join(dir, "worse.json")
	if err := writeResult(worse, res); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := compareFiles(manifestPath, out, worse, &stdout, &stderr); code != 1 {
		t.Errorf("halved restore bandwidth passes -compare (exit %d)", code)
	}
	if !strings.Contains(stdout.String(), "WORSE") {
		t.Errorf("-compare output names no WORSE row:\n%s", stdout.String())
	}
}

// checkSpans reads a trace file and checks that spans nest: a child lies
// inside its parent and shares its operation id.
func checkSpans(t *testing.T, path, workload string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byID := make(map[uint64]span)
	var all []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		byID[s.ID] = s
		all = append(all, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	children, ckpts := 0, 0
	for _, s := range all {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", workload, s.ID, s.Name)
		}
		if s.Name == workload+".ckpt" {
			ckpts++
		}
		if s.Parent == 0 {
			if s.Op != s.ID {
				t.Errorf("%s: root span %d has op %d", workload, s.ID, s.Op)
			}
			continue
		}
		children++
		p, ok := byID[s.Parent]
		if !ok {
			t.Errorf("%s: span %d has unknown parent %d", workload, s.ID, s.Parent)
			continue
		}
		if s.Op != p.Op || s.Start < p.Start || s.End > p.End {
			t.Errorf("%s: span %d (%s) [%d,%d] op %d does not nest in parent %d (%s) [%d,%d] op %d",
				workload, s.ID, s.Name, s.Start, s.End, s.Op, p.ID, p.Name, p.Start, p.End, p.Op)
		}
	}
	if children == 0 || ckpts == 0 {
		t.Errorf("%s: trace has %d child spans and %d checkpoint spans", workload, children, ckpts)
	}
}

func TestQuantiles(t *testing.T) {
	vs := []float64{4, 1, 3, 2}
	if got := median(vs); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if q1, q3 := quantile(vs, 0.25), quantile(vs, 0.75); q1 != 1.75 || q3 != 3.25 {
		t.Errorf("quartiles = %v, %v", q1, q3)
	}
	if v, p := tailPercentile(vs); v != 2.5 || p != 50 {
		t.Errorf("tail of 4 samples = %v at p%v, want the median", v, p)
	}
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	if v, p := tailPercentile(hundred); v != 90 || p != 90 {
		t.Errorf("tail of 100 samples = %v at p%v, want 90 at p90", v, p)
	}
}
