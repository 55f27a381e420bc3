package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"table2", "table3", "table3live", "table4", "fig7", "fig8", "table5",
		"managerload", "fedload", "restartload", "restoredelta", "openload",
		"readload", "churnload",
	}
	runners := All()
	if len(runners) != len(want) {
		t.Fatalf("registry has %d runners, want %d", len(runners), len(want))
	}
	for i, name := range want {
		if runners[i].Name != name {
			t.Errorf("runner %d = %q, want %q", i, runners[i].Name, name)
		}
		if runners[i].Title == "" || runners[i].Run == nil {
			t.Errorf("runner %q incomplete", name)
		}
	}
	if _, ok := Find("table1"); !ok {
		t.Fatal("Find(table1) failed")
	}
	if _, ok := Find("bogus"); ok {
		t.Fatal("Find(bogus) succeeded")
	}
}

func TestConfigScaling(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Scale != 64 || cfg.Runs != 3 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if got := cfg.scaled(1 << 30); got != 16<<20 {
		t.Fatalf("scaled(1GB) = %d, want 16MB", got)
	}
	if got := cfg.scaled(100); got != 64<<10 {
		t.Fatalf("scaled floor = %d, want 64KB", got)
	}
	if cs := cfg.chunkSize(); cs != 256<<10 {
		t.Fatalf("chunkSize at /64 = %d, want 256KB", cs)
	}
	full := Config{Scale: 1}.withDefaults()
	if cs := full.chunkSize(); cs != 1<<20 {
		t.Fatalf("chunkSize at /1 = %d, want 1MB", cs)
	}
	tiny := Config{Scale: 1024}.withDefaults()
	if cs := tiny.chunkSize(); cs != 64<<10 {
		t.Fatalf("chunkSize at /1024 = %d, want 64KB floor", cs)
	}
}

// TestTable1Smoke runs the cheapest experiment end to end at an extreme
// scale to keep CI fast, and checks the Table 1 ordering: null is much
// faster than local, FUSE ≈ local.
func TestTable1Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(Config{Scale: 256, Runs: 1, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Local I/O", "FUSE to local I/O", "/stdchk/null", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestTable3LiveSmoke runs the live similarity experiment at an extreme
// scale and checks the headline contrast survives the wire path: CbCH's
// live dedup ratio beats FsCH's on the shift-heavy BLCR trace.
func TestTable3LiveSmoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3Live(Config{Scale: 256, Runs: 1, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"FsCH(", "CbCH(stream", "dedup hits", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestTable3LiveContrast runs the live experiment at the standard 1/64
// scale and asserts the headline Table 3 result numerically: content-based
// chunking's live dedup ratio is at least 2x fixed-size chunking's on the
// shift-heavy BLCR trace. Skipped under -short (the scale-256
// TestTable3LiveSmoke covers harness health there).
func TestTable3LiveContrast(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-64 live run; -short smoke relies on TestTable3LiveSmoke")
	}
	var buf bytes.Buffer
	if err := Table3Live(Config{Scale: 64, Runs: 1, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	// Data rows lead with the technique name (no spaces); the first
	// percentage column is the live dedup ratio.
	ratio := func(prefix string) float64 {
		t.Helper()
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, prefix) {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) < 2 {
				break
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(fields[1], "%"), 64)
			if err != nil {
				t.Fatalf("parse %q in line %q: %v", fields[1], line, err)
			}
			return v
		}
		t.Fatalf("no %q row in output:\n%s", prefix, buf.String())
		return 0
	}
	fsch, cbch := ratio("FsCH("), ratio("CbCH(")
	if fsch <= 0 {
		t.Fatalf("FsCH live dedup %.1f%%; the BLCR trace lost its aligned prefix", fsch)
	}
	if cbch < 2*fsch {
		t.Fatalf("CbCH live dedup %.1f%% < 2x FsCH %.1f%%", cbch, fsch)
	}
}

// TestManagerLoadSmoke runs the §V.E manager load sweep briefly and checks
// that both variants produce sane throughput rows and that the JSON record
// stream round-trips. The sweep's writer counts are fixed (1..256); only
// the per-cell duration scales with Runs.
func TestManagerLoadSmoke(t *testing.T) {
	var buf, js bytes.Buffer
	if err := ManagerLoad(Config{Scale: 256, Runs: 1, Out: &buf, JSON: &js}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"striped", "striped+jasync", "striped+jfsync", "64", "256", "paper", "journaled/unjournaled", "group-commit fsync"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Fifteen JSON lines: 3 variants x 5 writer counts, each with a
	// positive tps; the group-commit variant must show its fsyncs being
	// amortized over multiple records.
	lines := 0
	fsyncCells := 0
	for _, line := range strings.Split(strings.TrimSpace(js.String()), "\n") {
		if line == "" {
			continue
		}
		lines++
		var rec struct {
			Variant  string  `json:"variant"`
			Writers  int     `json:"writers"`
			TPS      float64 `json:"tps"`
			Fsyncs   int64   `json:"journalFsyncs"`
			BatchLen int64   `json:"journalBatchLen"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSON record %q: %v", line, err)
		}
		if rec.TPS <= 0 || rec.Writers <= 0 || rec.Variant == "" {
			t.Fatalf("implausible record: %+v", rec)
		}
		if rec.Variant == "striped+jfsync" {
			fsyncCells++
			if rec.Fsyncs <= 0 || rec.BatchLen < rec.Fsyncs {
				t.Fatalf("group-commit cell without fsync accounting: %+v", rec)
			}
		}
	}
	if lines != 15 {
		t.Fatalf("%d JSON records, want 15", lines)
	}
	if fsyncCells != 5 {
		t.Fatalf("%d striped+jfsync cells, want 5", fsyncCells)
	}
}

// TestFedLoadSmoke runs the federated manager-load sweep briefly over
// real sockets and checks every (managers, writers) cell lands with a
// positive aggregate tps, that the member transaction counters show the
// partitioned traffic, and that the JSON record stream round-trips. This
// is the CI gate that keeps the federation wiring (router, partition
// filter, epoch checks, multi-member registration) from rotting.
func TestFedLoadSmoke(t *testing.T) {
	var buf, js bytes.Buffer
	// Runs is the only knob fedload scales by (sizes are fixed, see its doc).
	if err := FedLoad(Config{Runs: 1, Out: &buf, JSON: &js}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"managers", "aggregate tps", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Six JSON lines: 3 manager counts x 2 writer counts.
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(js.String()), "\n") {
		if line == "" {
			continue
		}
		lines++
		var rec struct {
			Experiment string  `json:"experiment"`
			Managers   int     `json:"managers"`
			Writers    int     `json:"writers"`
			TPS        float64 `json:"tps"`
			MemberTxns []int64 `json:"memberTransactions"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSON record %q: %v", line, err)
		}
		if rec.Experiment != "fedload" || rec.TPS <= 0 || rec.Managers <= 0 || rec.Writers <= 0 {
			t.Fatalf("implausible record: %+v", rec)
		}
		if len(rec.MemberTxns) != rec.Managers {
			t.Fatalf("record has %d member counters for %d managers", len(rec.MemberTxns), rec.Managers)
		}
		// With 16+ writers over <=4 members, every member must have seen
		// transactions: the partition function spreads dataset keys.
		for i, txns := range rec.MemberTxns {
			if txns <= 0 {
				t.Fatalf("member %d idle in %d-manager cell: %v", i, rec.Managers, rec.MemberTxns)
			}
		}
	}
	if lines != 6 {
		t.Fatalf("%d JSON records, want 6", lines)
	}
}

// TestRestartLoadSmoke runs the restart-storm sweep briefly over real
// sockets through the federation router and gates the read fast path's
// acceptance criteria on the JSON records: a warm explicit-version
// re-open issues ZERO getMap RPCs (and zero revalidation probes), a warm
// "latest" re-open issues exactly one MStatVersion per open and zero
// getMaps, and cold opens hit the manager-side hot-map cache once per
// (dataset, version) is built.
func TestRestartLoadSmoke(t *testing.T) {
	var buf, js bytes.Buffer
	if err := RestartLoad(Config{Runs: 1, Out: &buf, JSON: &js}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Restart storm", "cold", "warm", "statVersions", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	type rec struct {
		Experiment   string  `json:"experiment"`
		Mode         string  `json:"mode"`
		Readers      int     `json:"readers"`
		Phase        string  `json:"phase"`
		Opens        int64   `json:"opens"`
		OpensPerSec  float64 `json:"opensPerSec"`
		GetMaps      int64   `json:"getMaps"`
		StatVersions int64   `json:"statVersions"`
		MgrCacheHits int64   `json:"managerMapCacheHits"`
		Entries      int64   `json:"entriesReplayed"`
		Datasets     int     `json:"datasets"`
		RestartMs    float64 `json:"restartMs"`
		SnapshotSeq  int64   `json:"snapshotSeq"`
	}
	lines := 0
	restarts := make(map[string]rec)
	for _, line := range strings.Split(strings.TrimSpace(js.String()), "\n") {
		if line == "" {
			continue
		}
		lines++
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSON record %q: %v", line, err)
		}
		if r.Experiment != "restartload" {
			t.Fatalf("implausible record: %+v", r)
		}
		if strings.HasPrefix(r.Mode, "restart-") {
			if r.Entries <= 0 || r.Datasets <= 0 || r.RestartMs <= 0 {
				t.Fatalf("implausible restart cell: %+v", r)
			}
			restarts[r.Mode] = r
			continue
		}
		if r.Opens <= 0 || r.OpensPerSec <= 0 {
			t.Fatalf("implausible record: %+v", r)
		}
		switch {
		case r.Phase == "warm" && r.Mode == "version":
			// The headline claim: warm explicit-version re-opens cost the
			// metadata plane nothing.
			if r.GetMaps != 0 || r.StatVersions != 0 {
				t.Fatalf("warm explicit-version re-opens issued %d getMaps + %d statVersions, want 0 + 0: %+v",
					r.GetMaps, r.StatVersions, r)
			}
		case r.Phase == "warm" && r.Mode == "latest":
			// One lightweight revalidation probe per open, never a map.
			if r.GetMaps != 0 {
				t.Fatalf("warm latest re-opens issued %d getMaps, want 0: %+v", r.GetMaps, r)
			}
			if r.StatVersions != r.Opens {
				t.Fatalf("warm latest re-opens issued %d statVersions for %d opens: %+v",
					r.StatVersions, r.Opens, r)
			}
		case r.Phase == "cold":
			if r.GetMaps <= 0 {
				t.Fatalf("cold opens issued no getMaps: %+v", r)
			}
			// N readers fetching the same maps: the manager builds each
			// once and serves the rest from its hot-map cache.
			if r.Readers > 1 && r.MgrCacheHits <= 0 {
				t.Fatalf("cold storm with %d readers never hit the manager hot-map cache: %+v", r.Readers, r)
			}
		}
	}
	// 2 modes x 2 reader counts x 2 phases, plus the two metadata-plane
	// restart cells.
	if lines != 10 {
		t.Fatalf("%d JSON records, want 10", lines)
	}
	// The durability acceptance gate: a snapshot restart must replay
	// strictly less journal than a full replay while recovering the
	// identical dataset count. Entry counts are deterministic (fixed
	// synthetic history), so this cannot flake the way wall-clock
	// comparisons would; restartMs is recorded for the nightly archive.
	jr, ok := restarts["restart-journal"]
	if !ok {
		t.Fatalf("no restart-journal cell in %v", restarts)
	}
	sr, ok := restarts["restart-snapshot"]
	if !ok {
		t.Fatalf("no restart-snapshot cell in %v", restarts)
	}
	if sr.Entries >= jr.Entries {
		t.Fatalf("snapshot restart replayed %d entries, full replay %d — truncation didn't help", sr.Entries, jr.Entries)
	}
	if sr.SnapshotSeq <= 0 {
		t.Fatalf("snapshot restart recovered no watermark: %+v", sr)
	}
	if sr.Datasets != jr.Datasets {
		t.Fatalf("snapshot restart recovered %d datasets, full replay %d", sr.Datasets, jr.Datasets)
	}
}

// TestRestoreDeltaSmoke runs the full-vs-incremental restore experiment
// briefly over real sockets through the federation router and gates the
// incremental-restore acceptance criteria on the JSON records: a full
// restore fetches the whole image, an incremental restore fetches no
// more than the manager-reported diff (both restores are byte-verified
// against the committed image inside the experiment), and fetched +
// local bytes always reassemble the full file.
func TestRestoreDeltaSmoke(t *testing.T) {
	var buf, js bytes.Buffer
	if err := RestoreDelta(Config{Runs: 1, Out: &buf, JSON: &js}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Full vs incremental restore", "incremental", "diff bytes", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	type rec struct {
		Experiment string  `json:"experiment"`
		DeltaFrac  float64 `json:"deltaFrac"`
		Mode       string  `json:"mode"`
		FileBytes  int64   `json:"fileBytes"`
		DiffBytes  int64   `json:"diffBytes"`
		Fetched    int64   `json:"fetchedBytes"`
		Local      int64   `json:"localBytes"`
		RestoreMs  float64 `json:"restoreMs"`
	}
	lines := 0
	for _, line := range strings.Split(strings.TrimSpace(js.String()), "\n") {
		if line == "" {
			continue
		}
		lines++
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSON record %q: %v", line, err)
		}
		if r.Experiment != "restoredelta" || r.FileBytes <= 0 || r.RestoreMs <= 0 {
			t.Fatalf("implausible record: %+v", r)
		}
		if r.DiffBytes <= 0 || r.DiffBytes >= r.FileBytes {
			t.Fatalf("diff of a partial delta should be in (0, fileBytes): %+v", r)
		}
		switch r.Mode {
		case "full":
			if r.Fetched != r.FileBytes || r.Local != 0 {
				t.Fatalf("full restore fetched %d / reused %d of %d bytes: %+v", r.Fetched, r.Local, r.FileBytes, r)
			}
		case "incremental":
			// The headline claim: an incremental restore moves only the
			// version delta over the network.
			if r.Fetched > r.DiffBytes {
				t.Fatalf("incremental restore fetched %d bytes for a %d-byte diff: %+v", r.Fetched, r.DiffBytes, r)
			}
			if r.Fetched+r.Local != r.FileBytes {
				t.Fatalf("fetched %d + local %d != file %d: %+v", r.Fetched, r.Local, r.FileBytes, r)
			}
		default:
			t.Fatalf("unknown mode %q: %+v", r.Mode, r)
		}
	}
	// 3 delta fractions x 2 modes.
	if lines != 6 {
		t.Fatalf("%d JSON records, want 6", lines)
	}
}

// TestOpenLoadSmoke runs the open-loop traffic experiment briefly over
// real sockets (mux'd shared connections, bounded admission) and gates
// the million-writer plane's acceptance criteria on the JSON records:
// every offered-load level lands with completions and sane percentiles,
// the bounded grid's peak queue depth never exceeds the admission bound,
// and the ablation cell (unbounded queue) is present for contrast. The
// p99 gate is deliberately loose — a CI smoke, not a benchmark.
func TestOpenLoadSmoke(t *testing.T) {
	var buf, js bytes.Buffer
	if err := OpenLoad(Config{Runs: 1, Out: &buf, JSON: &js}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Open-loop traffic", "calibrated closed-loop capacity", "p999", "ablation at 1.50x", "unbounded queue"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	type rec struct {
		Experiment string  `json:"experiment"`
		Variant    string  `json:"variant"`
		Offered    float64 `json:"offeredPerSec"`
		Achieved   float64 `json:"achievedPerSec"`
		P50Micros  int64   `json:"p50Micros"`
		P99Micros  int64   `json:"p99Micros"`
		Completed  int64   `json:"completed"`
		ShedFailed int64   `json:"shedFailed"`
		PeakDepth  int64   `json:"peakQueueDepth"`
	}
	lines, unbounded := 0, 0
	for _, line := range strings.Split(strings.TrimSpace(js.String()), "\n") {
		if line == "" {
			continue
		}
		lines++
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSON record %q: %v", line, err)
		}
		if r.Experiment != "openload" || r.Offered <= 0 {
			t.Fatalf("implausible record: %+v", r)
		}
		switch r.Variant {
		case "admission":
			// The admission gate's whole point: the pending-op queue is
			// bounded by construction, even at 1.5x offered load.
			if r.PeakDepth > 128 {
				t.Fatalf("bounded grid peak queue depth %d exceeds admission bound 128: %+v", r.PeakDepth, r)
			}
			if r.Completed <= 0 || r.P50Micros <= 0 || r.P99Micros < r.P50Micros {
				t.Fatalf("implausible latency cell: %+v", r)
			}
			// Loose tail gate: a loopback checkpoint commit taking >30s at
			// p99 means the plane hung, not that CI was slow.
			if r.P99Micros > 30_000_000 {
				t.Fatalf("p99 %dµs implies a stuck plane: %+v", r.P99Micros, r)
			}
		case "unbounded":
			unbounded++
			// The ablation unbounds the admission queue, not the per-conn
			// inflight budget — so ShedFailed may still count conn-level
			// sheds, but completions must flow.
			if r.Completed <= 0 {
				t.Fatalf("unbounded ablation starved: %+v", r)
			}
		default:
			t.Fatalf("unknown variant %q: %+v", r.Variant, r)
		}
	}
	// Five sweep levels plus the ablation cell.
	if lines != 6 {
		t.Fatalf("%d JSON records, want 6", lines)
	}
	if unbounded != 1 {
		t.Fatalf("%d unbounded ablation cells, want 1", unbounded)
	}
}

// TestReadLoadSmoke runs the pipelined-data-plane restore experiment
// briefly over real sockets and gates its acceptance criteria on the JSON
// records: every cell restores byte-identically (verified inside the
// experiment), fetches exactly the image once, the pipelined (default
// reader) cells are fully served by BGetBatch below 1 MB chunks (no
// silent fallback to per-chunk BGets) and not at all at 1 MB (two chunks
// outgrow a pooled reply buffer), the serial cells (ReadAheadBytes = one
// chunk) batch nothing, and at 32 KB chunks the pipelined restore is at
// least 2x the serial one.
// The 2x gate is deterministic even on a 1-CPU box: the serial arm's
// floor is one modeled link-latency sleep per chunk, wall-clock the
// pipelined window provably overlaps.
func TestReadLoadSmoke(t *testing.T) {
	var buf, js bytes.Buffer
	if err := ReadLoad(Config{Runs: 1, Out: &buf, JSON: &js}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Pipelined vs serial restore", "speedup", "paper"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	type rec struct {
		Experiment string  `json:"experiment"`
		ChunkKB    int64   `json:"chunkKB"`
		Mode       string  `json:"mode"`
		FileBytes  int64   `json:"fileBytes"`
		Fetched    int64   `json:"fetchedBytes"`
		Batched    int64   `json:"batchedBytes"`
		RestoreMs  float64 `json:"restoreMs"`
		MBps       float64 `json:"mbps"`
	}
	lines := 0
	ms := map[string]float64{} // "mode@chunkKB" -> restore ms
	for _, line := range strings.Split(strings.TrimSpace(js.String()), "\n") {
		if line == "" {
			continue
		}
		lines++
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSON record %q: %v", line, err)
		}
		if r.Experiment != "readload" || r.FileBytes <= 0 || r.RestoreMs <= 0 || r.MBps <= 0 {
			t.Fatalf("implausible record: %+v", r)
		}
		if r.Fetched != r.FileBytes {
			t.Fatalf("restore fetched %d of %d bytes: %+v", r.Fetched, r.FileBytes, r)
		}
		switch r.Mode {
		case "serial":
			if r.Batched != 0 {
				t.Fatalf("serial cell served %d bytes via BGetBatch: %+v", r.Batched, r)
			}
		case "pipelined":
			want := r.FileBytes
			if r.ChunkKB >= 1024 {
				want = 0
			}
			if r.Batched != want {
				t.Fatalf("pipelined cell batched %d bytes, want %d: %+v", r.Batched, want, r)
			}
		default:
			t.Fatalf("unknown mode %q: %+v", r.Mode, r)
		}
		ms[fmt.Sprintf("%s@%d", r.Mode, r.ChunkKB)] = r.RestoreMs
	}
	// 3 chunk sizes x 2 modes.
	if lines != 6 {
		t.Fatalf("%d JSON records, want 6", lines)
	}
	serial, pipelined := ms["serial@32"], ms["pipelined@32"]
	if serial == 0 || pipelined == 0 {
		t.Fatalf("missing 32 KB cells in %v", ms)
	}
	// The tentpole acceptance criterion.
	if serial < 2*pipelined {
		t.Fatalf("pipelined restore at 32 KB chunks is %.1fms vs serial %.1fms — less than the required 2x speedup",
			pipelined, serial)
	}
}

// TestChurnLoadSmoke runs one flap + death + rejoin cycle and checks the
// hard gates: zero loss on every phase, a decommission past DeadTimeout,
// critical repairs completing no later than bulk, and metadata-only flap
// healing (reconciliation, not copies).
func TestChurnLoadSmoke(t *testing.T) {
	var buf, js bytes.Buffer
	if err := ChurnLoad(Config{Runs: 1, Out: &buf, JSON: &js}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Churn:", "flap", "death", "rejoin", "zeroLoss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	type rec struct {
		Experiment      string  `json:"experiment"`
		Phase           string  `json:"phase"`
		CriticalClearMs float64 `json:"criticalClearMs"`
		RepairedMs      float64 `json:"repairedMs"`
		CopiedBytes     int64   `json:"copiedBytes"`
		Reconciled      int64   `json:"reconciled"`
		Decommissions   int64   `json:"decommissions"`
		ZeroLoss        bool    `json:"zeroLoss"`
	}
	phases := map[string]rec{}
	for _, line := range strings.Split(strings.TrimSpace(js.String()), "\n") {
		if line == "" {
			continue
		}
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad JSON record %q: %v", line, err)
		}
		if r.Experiment != "churnload" || !r.ZeroLoss {
			t.Fatalf("record lost data or is mislabeled: %+v", r)
		}
		phases[r.Phase] = r
	}
	if len(phases) != 3 {
		t.Fatalf("phases %v, want flap/death/rejoin", phases)
	}
	if f := phases["flap"]; f.Reconciled <= 0 {
		t.Fatalf("flap healed without reconciling inventory: %+v", f)
	}
	d := phases["death"]
	if d.CopiedBytes <= 0 || d.Decommissions != 1 {
		t.Fatalf("death did not repair+decommission: %+v", d)
	}
	if d.CriticalClearMs <= 0 || d.CriticalClearMs > d.RepairedMs {
		t.Fatalf("critical band did not clear before bulk repair finished: %+v", d)
	}
	if rj := phases["rejoin"]; rj.Reconciled <= 0 {
		t.Fatalf("decommissioned donor rejoined without re-adopting replicas: %+v", rj)
	}
}

// TestTable2Smoke checks the trace table renders all four workloads.
func TestTable2Smoke(t *testing.T) {
	var buf bytes.Buffer
	if err := Table2(Config{Scale: 256, Runs: 1, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"BMS", "library (BLCR)", "VM (Xen)", "902 x 279.6"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
