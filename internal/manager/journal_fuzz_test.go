package manager

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"stdchk/internal/leakcheck"
	"stdchk/internal/proto"
)

// FuzzJournalReplay appends arbitrary bytes to a journal of valid entries
// (the deterministic workload of driveSequentialJournal: commits, a delete
// and a policy) and opens a manager on it. The journal's tail is a decoder
// over whatever a crash, a full disk or a stray write left on disk: the
// manager must either open with at least the valid prefix replayed or
// return an error, and never panic. Seeds are f.Add calls: a torn record,
// records of unknown or malformed ops, and values no writer produces.
func FuzzJournalReplay(f *testing.F) {
	valid, _ := driveSequentialJournal(f)
	entries := bytes.Count(valid, []byte("\n"))
	last := bytes.LastIndexByte(valid[:len(valid)-1], '\n') + 1
	for _, seed := range []string{
		"",
		"\n\n  \t",
		string(valid[last : len(valid)-1][:20]), // a torn record
		string(valid[last:]),                    // the last record again
		`{"op":"bogus","name":"x"}`,
		`{"op":"commit","name":""}`,
		`{"op":"commit","name":"a.n1.t1","chunkSize":-1,"fileSize":-5,"chunks":[{"size":-1}]}`,
		`{"op":"commit","name":"a.n1.t1","replication":-3,"chunkSize":512,"fileSize":9223372036854775807,"chunks":[{"size":512,"locations":["sq1"]}]}`,
		`{"op":"delete","name":"seq.n0","version":18446744073709551615}`,
		`{"op":"policy","name":"seq","policy":{"kind":99,"keepVersions":-1}}`,
		`{"op":"policy","name":"seq"}`,
		`{"op":"decommission","name":""}`,
		`{"seq":1,"op":"commit","name":"seq.n0.t0","chunkSize":512,"fileSize":512,"chunks":[{"size":512}]}`,
		`{"op":"commit","name":"seq.n0.t9","chunkSize":512,"fileSize":1024,"variable":true,"chunks":[{"size":0},{"size":1024}]}`,
		`[]`, `null`, `{"op":"commit","chunks":null}`, "\xff\xfe{",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, append(valid[:len(valid):len(valid)], tail...), 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{JournalPath: path, HeartbeatInterval: time.Hour, SessionTTL: time.Hour})
		if err != nil {
			return
		}
		defer m.Close()
		if got := m.Stats().Counters[proto.CtrJournalReplayed].Value; got < int64(entries) {
			t.Fatalf("opened with %d entries replayed; the valid prefix has %d", got, entries)
		}
	})
}

// TestFailedReplayClosesJournal: a manager whose journal replay fails
// returns the error with its journal closed — no writer goroutine left
// behind, as FuzzJournalReplay would otherwise leave one per refused
// input.
func TestFailedReplayClosesJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.journal")
	if err := os.WriteFile(path, []byte(`{"op":"bogus","name":"x"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	baseline, base := runtime.NumGoroutine(), leakcheck.Take()
	if _, err := New(Config{JournalPath: path}); err == nil {
		t.Fatal("a journal with an unknown op replayed")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed New, %d before:\n%s", runtime.NumGoroutine(), baseline, leakcheck.Report(base, leakcheck.Take()))
		}
	}
}
