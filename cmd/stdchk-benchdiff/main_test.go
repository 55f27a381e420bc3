package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	tests := []struct {
		line   string
		name   string
		allocs float64
		ok     bool
	}{
		{"BenchmarkWireFrame/meta=128-4  100  1234 ns/op  56 B/op  7 allocs/op", "BenchmarkWireFrame/meta=128", 7, true},
		{"BenchmarkManagerOps 	 200	 78246 ns/op	 11550 B/op	 195 allocs/op", "BenchmarkManagerOps", 195, true},
		{"BenchmarkNoSuffix  100  99 ns/op", "BenchmarkNoSuffix", 0, true},
		{"BenchmarkWriteOAB/fixed-64k-2  50  1234 ns/op  9 B/op  108 allocs/op  8000 ckpt-allocs/op", "BenchmarkWriteOAB/fixed-64k", 108, true},
		{"BenchmarkWriteOAB/fixed-64k-2  50  1234 ns/op  9 B/op  108 allocs/op  8000 ckpt-allocs/op", "BenchmarkWriteOAB/fixed-64k ckpt-allocs/op", 8000, true},
		{"PASS", "", 0, false},
		{"ok  	stdchk/internal/wire	0.5s", "", 0, false},
		{"goos: linux", "", 0, false},
	}
	for _, tt := range tests {
		rows := parseLine(tt.line)
		if ok := len(rows) > 0; ok != tt.ok {
			t.Fatalf("parseLine(%q) parsed = %v, want %v", tt.line, ok, tt.ok)
		}
		if !tt.ok {
			continue
		}
		r, ok := rows[tt.name]
		if !ok {
			t.Fatalf("parseLine(%q) has no result %q: %v", tt.line, tt.name, rows)
		}
		if r.AllocsPerOp != tt.allocs {
			t.Fatalf("parseLine(%q) allocs = %v, want %v", tt.line, r.AllocsPerOp, tt.allocs)
		}
	}
}

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGatesAllocRegression(t *testing.T) {
	base := writeTemp(t, "base.txt", `
BenchmarkWireFrame-4  100  1000 ns/op  56 B/op  10 allocs/op
BenchmarkManagerOps-4  100  5000 ns/op  100 B/op  100 allocs/op
`)
	// WireFrame regresses 10 -> 20 allocs/op (+100%): must fail.
	headBad := writeTemp(t, "head-bad.txt", `
BenchmarkWireFrame-4  100  1000 ns/op  56 B/op  20 allocs/op
BenchmarkManagerOps-4  100  5000 ns/op  100 B/op  100 allocs/op
`)
	err := run([]string{"-base", base, "-head", headBad}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkWireFrame") {
		t.Fatalf("regression not gated: %v", err)
	}

	// Within threshold (+20%) and a brand-new benchmark: must pass.
	headOK := writeTemp(t, "head-ok.txt", `
BenchmarkWireFrame-4  100  1000 ns/op  56 B/op  12 allocs/op
BenchmarkManagerOps-4  100  5000 ns/op  100 B/op  100 allocs/op
BenchmarkBrandNew-4  100  10 ns/op  0 B/op  0 allocs/op
`)
	if err := run([]string{"-base", base, "-head", headOK}, os.Stdout); err != nil {
		t.Fatal(err)
	}

	// Averaging across repetitions: two runs of 10 and 14 average to 12,
	// within the 30% default against base 10.
	headAvg := writeTemp(t, "head-avg.txt", `
BenchmarkWireFrame-4  100  1000 ns/op  56 B/op  10 allocs/op
BenchmarkWireFrame-4  100  1000 ns/op  56 B/op  14 allocs/op
`)
	if err := run([]string{"-base", base, "-head", headAvg}, os.Stdout); err != nil {
		t.Fatal(err)
	}

	// A custom allocation count gates on its own: allocs/op holds while
	// ckpt-allocs/op doubles.
	baseCkpt := writeTemp(t, "base-ckpt.txt", `
BenchmarkWriteOAB-4  50  1000 ns/op  56 B/op  100 allocs/op  1000 ckpt-allocs/op
`)
	headCkpt := writeTemp(t, "head-ckpt.txt", `
BenchmarkWriteOAB-4  50  1000 ns/op  56 B/op  100 allocs/op  2000 ckpt-allocs/op
`)
	err = run([]string{"-base", baseCkpt, "-head", headCkpt}, os.Stdout)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkWriteOAB ckpt-allocs/op") {
		t.Fatalf("custom allocation regression not gated: %v", err)
	}
}
