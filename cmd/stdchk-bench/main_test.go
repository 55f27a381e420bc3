package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-exp", "nope"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// table2 is pure trace generation: fast and deterministic.
	if err := run([]string{"-exp", "table2", "-scale", "256", "-runs", "1"}); err != nil {
		t.Fatal(err)
	}
}

// TestRunJSON checks -json writes one record per printed row, tagged with
// the runner, for a runner that had no records before every runner
// returned tables.
func TestRunJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := run([]string{"-exp", "table2", "-scale", "256", "-runs", "1", "-json", path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d records, want one per trace (4):\n%s", len(lines), raw)
	}
	for _, line := range lines {
		var rec struct {
			Runner string             `json:"runner"`
			Table  string             `json:"table"`
			Row    map[string]string  `json:"row"`
			Cells  map[string]float64 `json:"cells"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		if rec.Runner != "table2" || rec.Table != "traces" || rec.Row["Application"] == "" || rec.Cells["paper images"] <= 0 {
			t.Fatalf("implausible record: %q", line)
		}
	}
}
