package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig3", "fig4", "fig5", "fig6",
		"table2", "table3", "table3live", "table4", "fig7", "fig8", "table5",
		"managerload", "fedload", "restartload", "restoredelta", "openload",
		"readload", "churnload",
		"ablation-rolling", "ablation-xenfix", "ablation-writepriority", "ablation-readpath",
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
		if got := strings.HasPrefix(name, "ablation-"); runners[i].Ablation != got {
			t.Errorf("runner %q: Ablation = %v, want %v", name, runners[i].Ablation, got)
		}
	}
	if _, ok := Find("table1"); !ok {
		t.Fatal("Find(table1) failed")
	}
	if _, ok := Find("ablation-readpath"); !ok {
		t.Fatal("Find(ablation-readpath) failed")
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

// tableNamed returns the table called name among a runner's tables.
func tableNamed(t *testing.T, tables []Table, name string) Table {
	t.Helper()
	for _, tb := range tables {
		if tb.Name == name {
			return tb
		}
	}
	t.Fatalf("no table %q among %d tables", name, len(tables))
	return Table{}
}

// mustCell returns one cell, failing the test when it is missing.
func mustCell(t *testing.T, tb Table, label, column string) float64 {
	t.Helper()
	v, ok := tb.cell(label, column)
	if !ok {
		t.Fatalf("table %q has no cell (%s, %s)", tb.Name, label, column)
	}
	return v
}

// rowsByLabel indexes a table's rows by their joined label and checks
// that every row has one label part per key and one cell per column.
func rowsByLabel(t *testing.T, tb Table) map[string]map[string]float64 {
	t.Helper()
	out := make(map[string]map[string]float64, len(tb.Rows))
	for _, r := range tb.Rows {
		if len(r.Label) != len(tb.Keys) || len(r.Cells) != len(tb.Columns) {
			t.Fatalf("table %q row %v: %d labels for %d keys, %d cells for %d columns",
				tb.Name, r.Label, len(r.Label), len(tb.Keys), len(r.Cells), len(tb.Columns))
		}
		cells := make(map[string]float64, len(r.Cells))
		for i, c := range tb.Columns {
			cells[c.Name] = r.Cells[i]
		}
		out[strings.Join(r.Label, "/")] = cells
	}
	return out
}

// hasNote reports whether some footer line of tb contains want.
func hasNote(tb Table, want string) bool {
	for _, n := range tb.Notes {
		if strings.Contains(n, want) {
			return true
		}
	}
	return false
}

// TestPrintAndEncode pins the printer and the JSON encoder on a small
// table: aligned columns with units in the header, "-" for a missing
// cell, true/false for a bool column, notes last; one JSON line per row
// keyed by runner, table, row label and column, the missing cell left out.
func TestPrintAndEncode(t *testing.T) {
	tb := Table{
		Name: "demo", Title: "Demo table",
		Keys:    []string{"mode", "n"},
		Columns: []Column{col("rate", "MB/s", 1), col("ok", "bool", 0)},
	}
	tb.add(labels("fast", 2), 123.45, 1)
	tb.add(labels("slow", 16), math.NaN(), 0)
	tb.note("paper: %d%% of it", 50)

	var out strings.Builder
	if err := Print(&out, []Table{tb}); err != nil {
		t.Fatal(err)
	}
	want := "Demo table\n" +
		"mode  n   rate (MB/s)     ok\n" +
		"fast  2         123.5   true\n" +
		"slow  16            -  false\n" +
		"paper: 50% of it\n\n"
	if out.String() != want {
		t.Fatalf("printed:\n%q\nwant:\n%q", out.String(), want)
	}

	var js strings.Builder
	if err := EncodeJSON(&js, "demo-runner", []Table{tb}); err != nil {
		t.Fatal(err)
	}
	wantJS := `{"runner":"demo-runner","table":"demo","row":{"mode":"fast","n":"2"},"cells":{"ok":1,"rate":123.45},"units":{"ok":"bool","rate":"MB/s"}}` + "\n" +
		`{"runner":"demo-runner","table":"demo","row":{"mode":"slow","n":"16"},"cells":{"ok":0},"units":{"ok":"bool"}}` + "\n"
	if js.String() != wantJS {
		t.Fatalf("json:\n%s\nwant:\n%s", js.String(), wantJS)
	}
}

// TestTable1Smoke runs the cheapest experiment end to end at an extreme
// scale to keep CI fast, and checks its rows and the paper column.
func TestTable1Smoke(t *testing.T) {
	tables, err := Table1(Config{Scale: 256, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tableNamed(t, tables, "write-time")
	rows := rowsByLabel(t, tb)
	for label, paper := range map[string]float64{"Local I/O": 11.80, "FUSE to local I/O": 12.00, "/stdchk/null": 1.04} {
		r, ok := rows[label]
		if !ok {
			t.Fatalf("no %q row in %v", label, rows)
		}
		if r["paper (1GB)"] != paper || r["avg (scaled)"] <= 0 {
			t.Fatalf("row %q: %v", label, r)
		}
	}
	if !hasNote(tb, "paper") {
		t.Fatalf("no paper line in %q", tb.Notes)
	}
}

// TestTable3LiveSmoke runs the live similarity experiment at an extreme
// scale and checks both rows land with the probe counters.
func TestTable3LiveSmoke(t *testing.T) {
	tables, err := Table3Live(Config{Scale: 256, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tableNamed(t, tables, "live-similarity")
	var sawFsCH, sawCbCH bool
	for label, r := range rowsByLabel(t, tb) {
		sawFsCH = sawFsCH || strings.HasPrefix(label, "FsCH(")
		sawCbCH = sawCbCH || strings.HasPrefix(label, "CbCH(stream")
		if r["probe RPCs"] <= 0 {
			t.Fatalf("row %q sent no dedup probes: %v", label, r)
		}
	}
	if !sawFsCH || !sawCbCH || !hasNote(tb, "paper") {
		t.Fatalf("rows or paper line missing: %+v", tb)
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
	tables, err := Table3Live(Config{Scale: 64, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fsch, cbch float64
	for label, r := range rowsByLabel(t, tableNamed(t, tables, "live-similarity")) {
		switch {
		case strings.HasPrefix(label, "FsCH("):
			fsch = r["live dedup"]
		case strings.HasPrefix(label, "CbCH("):
			cbch = r["live dedup"]
		}
	}
	if fsch <= 0 {
		t.Fatalf("FsCH live dedup %.1f%%; the BLCR trace lost its aligned prefix", fsch)
	}
	if cbch < 2*fsch {
		t.Fatalf("CbCH live dedup %.1f%% < 2x FsCH %.1f%%", cbch, fsch)
	}
}

// TestManagerLoadSmoke runs the §V.E manager load sweep briefly and checks
// that every variant produces sane throughput rows and the ratio table.
// The sweep's writer counts are fixed (1..256); only the per-cell
// duration scales with Runs.
func TestManagerLoadSmoke(t *testing.T) {
	tables, err := ManagerLoad(Config{Scale: 256, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Fifteen rows: 3 variants x 5 writer counts, each with a positive
	// tps; the group-commit variant must show its fsyncs being amortized
	// over multiple records.
	rows := rowsByLabel(t, tableNamed(t, tables, "load"))
	if len(rows) != 15 {
		t.Fatalf("%d rows, want 15", len(rows))
	}
	for _, variant := range []string{"striped", "striped+jasync", "striped+jfsync"} {
		for _, w := range []int{1, 4, 16, 64, 256} {
			r, ok := rows[fmt.Sprintf("%s/%d", variant, w)]
			if !ok || r["tps"] <= 0 {
				t.Fatalf("implausible %s/%d row: %v", variant, w, r)
			}
			if variant == "striped+jfsync" && (r["journal fsyncs"] <= 0 || r["journal records"] < r["journal fsyncs"]) {
				t.Fatalf("group-commit row without fsync accounting: %v", r)
			}
		}
	}
	ratios := tableNamed(t, tables, "ratios")
	for _, label := range []string{"journaled/unjournaled tps/64", "journaled/unjournaled tps/256",
		"group-commit fsync/relaxed async tps/256", "records amortized per fsync/256"} {
		if mustCell(t, ratios, label, "value") <= 0 {
			t.Fatalf("ratio %q not positive", label)
		}
	}
	if !hasNote(ratios, "paper") {
		t.Fatalf("no paper line in %q", ratios.Notes)
	}
}

// TestFedLoadSmoke runs the federated manager-load sweep briefly over
// real sockets and checks every (managers, writers) row lands with a
// positive aggregate tps and that the member transaction counters show
// the partitioned traffic. This is the CI gate that keeps the federation
// wiring (router, partition filter, epoch checks, multi-member
// registration) from rotting.
func TestFedLoadSmoke(t *testing.T) {
	// Runs is the only knob fedload scales by (sizes are fixed, see its doc).
	tables, err := FedLoad(Config{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tableNamed(t, tables, "fedload")
	// Six rows: 3 manager counts x 2 writer counts.
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		var managers, writers int
		fmt.Sscan(r.Label[0], &managers)
		fmt.Sscan(r.Label[1], &writers)
		if r.Cells[0] <= 0 || managers <= 0 || writers <= 0 {
			t.Fatalf("implausible row: %+v", r)
		}
		// With 16+ writers over <=4 members, every member must have seen
		// transactions (the partition function spreads dataset keys), and
		// no member past the row's count may have a column.
		members := r.Cells[2:]
		for i, txns := range members {
			if present := !math.IsNaN(txns); present != (i < managers) {
				t.Fatalf("row %v: member %d column present=%v", r.Label, i, present)
			}
			if i < managers && txns <= 0 {
				t.Fatalf("member %d idle in %d-manager row: %v", i, managers, members)
			}
		}
	}
	if len(tableNamed(t, tables, "scaling").Rows) != 2 {
		t.Fatal("scaling table lacks a row per writer count")
	}
}

// TestRestartLoadSmoke runs the restart-storm sweep briefly over real
// sockets through the federation router and gates the read fast path's
// acceptance criteria on the returned rows: a warm explicit-version
// re-open issues ZERO getMap RPCs (and zero statVersions), a warm
// "latest" re-open issues exactly one MGetMap per open — answered without
// a map — and no statVersion.
func TestRestartLoadSmoke(t *testing.T) {
	tables, err := RestartLoad(Config{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	opens := tableNamed(t, tables, "opens")
	// 2 modes x 2 reader counts x 2 phases.
	if len(opens.Rows) != 8 {
		t.Fatalf("%d open rows, want 8", len(opens.Rows))
	}
	for label, r := range rowsByLabel(t, opens) {
		if r["opens"] <= 0 || r["opens/s"] <= 0 {
			t.Fatalf("implausible row %q: %v", label, r)
		}
		switch {
		case strings.HasPrefix(label, "version/") && strings.HasSuffix(label, "/warm"):
			// The headline claim: warm explicit-version re-opens cost the
			// metadata plane nothing.
			if r["getMaps"] != 0 || r["statVersions"] != 0 {
				t.Fatalf("warm explicit-version re-opens issued %v getMaps + %v statVersions, want 0 + 0: %q",
					r["getMaps"], r["statVersions"], label)
			}
		case strings.HasPrefix(label, "latest/") && strings.HasSuffix(label, "/warm"):
			// One MGetMap per open, answered "unchanged": no probe.
			if r["getMaps"] != r["opens"] || r["statVersions"] != 0 {
				t.Fatalf("warm latest re-opens issued %v getMaps + %v statVersions for %v opens: %q",
					r["getMaps"], r["statVersions"], r["opens"], label)
			}
		case strings.HasSuffix(label, "/cold"):
			if r["getMaps"] <= 0 {
				t.Fatalf("cold opens issued no getMaps: %q", label)
			}
		}
	}
	// The durability acceptance gate: a snapshot restart must replay
	// strictly less journal than a full replay while recovering the
	// identical dataset count. Entry counts are deterministic (fixed
	// synthetic history), so this cannot flake the way wall-clock
	// comparisons would; the restart time is recorded for the nightly
	// archive.
	rec := rowsByLabel(t, tableNamed(t, tables, "recovery"))
	jr, ok := rec["restart-journal"]
	if !ok {
		t.Fatalf("no restart-journal row in %v", rec)
	}
	sr, ok := rec["restart-snapshot"]
	if !ok {
		t.Fatalf("no restart-snapshot row in %v", rec)
	}
	for _, r := range []map[string]float64{jr, sr} {
		if r["entries replayed"] <= 0 || r["datasets"] <= 0 || r["restart"] <= 0 {
			t.Fatalf("implausible restart row: %v", r)
		}
	}
	if sr["entries replayed"] >= jr["entries replayed"] {
		t.Fatalf("snapshot restart replayed %v entries, full replay %v — truncation didn't help", sr["entries replayed"], jr["entries replayed"])
	}
	if sr["snapshot watermark"] <= 0 {
		t.Fatalf("snapshot restart recovered no watermark: %v", sr)
	}
	if sr["datasets"] != jr["datasets"] {
		t.Fatalf("snapshot restart recovered %v datasets, full replay %v", sr["datasets"], jr["datasets"])
	}
}

// TestRestoreDeltaSmoke runs the full-vs-incremental restore experiment
// briefly over real sockets through the federation router and gates the
// incremental-restore acceptance criteria on the returned rows: a full
// restore fetches the whole image, an incremental restore fetches no
// more than the manager-reported diff (both restores are byte-verified
// against the committed image inside the experiment), and fetched +
// local bytes always reassemble the full file.
func TestRestoreDeltaSmoke(t *testing.T) {
	tables, err := RestoreDelta(Config{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tableNamed(t, tables, "restore")
	// 3 delta fractions x 2 modes.
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
	for label, r := range rowsByLabel(t, tb) {
		if r["bytes"] <= 0 || r["restore time"] <= 0 {
			t.Fatalf("implausible row %q: %v", label, r)
		}
		if r["diff bytes"] <= 0 || r["diff bytes"] >= r["bytes"] {
			t.Fatalf("diff of a partial delta should be in (0, bytes): %q %v", label, r)
		}
		switch {
		case strings.HasSuffix(label, "/full"):
			if r["fetched"] != r["bytes"] || r["local"] != 0 {
				t.Fatalf("full restore fetched %v / reused %v of %v bytes", r["fetched"], r["local"], r["bytes"])
			}
		case strings.HasSuffix(label, "/incremental"):
			// The headline claim: an incremental restore moves only the
			// version delta over the network.
			if r["fetched"] > r["diff bytes"] {
				t.Fatalf("incremental restore fetched %v bytes for a %v-byte diff", r["fetched"], r["diff bytes"])
			}
			if r["fetched"]+r["local"] != r["bytes"] {
				t.Fatalf("fetched %v + local %v != file %v", r["fetched"], r["local"], r["bytes"])
			}
		default:
			t.Fatalf("unknown mode in %q", label)
		}
	}
}

// TestOpenLoadSmoke runs the open-loop traffic experiment briefly over
// real sockets (mux'd shared connections, bounded admission) and gates
// the million-writer plane's acceptance criteria on the returned rows:
// every offered-load level lands with completions and sane percentiles,
// the bounded grid's peak queue depth never exceeds the admission bound,
// and the ablation row (unbounded queue) is present for contrast. The
// p99 gate is deliberately loose — a CI smoke, not a benchmark.
func TestOpenLoadSmoke(t *testing.T) {
	tables, err := OpenLoad(Config{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c := mustCell(t, tableNamed(t, tables, "capacity"), "closed-loop", "capacity"); c <= 0 {
		t.Fatalf("calibrated capacity %v", c)
	}
	levels := tableNamed(t, tables, "levels")
	// Five sweep levels.
	if len(levels.Rows) != 5 {
		t.Fatalf("%d level rows, want 5", len(levels.Rows))
	}
	for label, r := range rowsByLabel(t, levels) {
		if r["offered"] <= 0 {
			t.Fatalf("implausible row %q: %v", label, r)
		}
		// The admission gate's whole point: the pending-op queue is
		// bounded by construction, even at 1.5x offered load.
		if r["peakdepth"] > 128 {
			t.Fatalf("bounded grid peak queue depth %v exceeds admission bound 128: %q", r["peakdepth"], label)
		}
		if r["completed"] <= 0 || r["p50"] <= 0 || r["p99"] < r["p50"] {
			t.Fatalf("implausible latency row %q: %v", label, r)
		}
		// Loose tail gate: a loopback checkpoint commit taking >30s at
		// p99 means the plane hung, not that CI was slow.
		if r["p99"] > 30_000_000 {
			t.Fatalf("p99 %vµs implies a stuck plane: %q", r["p99"], label)
		}
	}
	ablation := rowsByLabel(t, tableNamed(t, tables, "ablation"))
	// The ablation unbounds the admission queue, not the per-conn
	// inflight budget — so failed may still count conn-level sheds, but
	// completions must flow.
	if u, ok := ablation["unbounded queue"]; !ok || u["completed"] <= 0 || u["offered"] <= 0 {
		t.Fatalf("unbounded ablation row missing or starved: %v", ablation)
	}
	if len(ablation) != 2 {
		t.Fatalf("%d ablation rows, want 2", len(ablation))
	}
}

// TestReadLoadSmoke runs the pipelined-data-plane restore experiment
// briefly over real sockets and gates its acceptance criteria on the
// returned rows: every row restores byte-identically (verified inside the
// experiment), fetches exactly the image once, the pipelined (default
// reader) rows are fully served by BGetBatch below 1 MB chunks (no
// silent fallback to per-chunk BGets) and not at all at 1 MB (two chunks
// outgrow a pooled reply buffer), the serial rows (ReadAheadBytes = one
// chunk) batch nothing, and at 32 KB chunks the pipelined restore is at
// least 2x the serial one.
// The 2x gate is deterministic even on a 1-CPU box: the serial arm's
// floor is one modeled link-latency sleep per chunk, wall-clock the
// pipelined window provably overlaps.
func TestReadLoadSmoke(t *testing.T) {
	tables, err := ReadLoad(Config{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	const imageSize = 8 << 20
	tb := tableNamed(t, tables, "restore")
	// 3 chunk sizes x 2 modes.
	if len(tb.Rows) != 6 {
		t.Fatalf("%d rows, want 6", len(tb.Rows))
	}
	for label, cells := range rowsByLabel(t, tb) {
		chunk, mode, _ := strings.Cut(label, "/")
		var chunkKB int
		fmt.Sscan(chunk, &chunkKB)
		if cells["restore time"] <= 0 || cells["restore"] <= 0 {
			t.Fatalf("implausible row %q: %v", label, cells)
		}
		if cells["fetched"] != imageSize {
			t.Fatalf("restore fetched %v of %d bytes: %q", cells["fetched"], imageSize, label)
		}
		switch mode {
		case "serial":
			if cells["batched"] != 0 {
				t.Fatalf("serial row served %v bytes via BGetBatch: %q", cells["batched"], label)
			}
		case "pipelined":
			want := float64(imageSize)
			if chunkKB >= 1024 {
				want = 0
			}
			if cells["batched"] != want {
				t.Fatalf("pipelined row batched %v bytes, want %v: %q", cells["batched"], want, label)
			}
		default:
			t.Fatalf("unknown mode %q", mode)
		}
	}
	serial := mustCell(t, tb, "32 KB/serial", "restore time")
	pipelined := mustCell(t, tb, "32 KB/pipelined", "restore time")
	// The tentpole acceptance criterion.
	if serial < 2*pipelined {
		t.Fatalf("pipelined restore at 32 KB chunks is %.1fms vs serial %.1fms — less than the required 2x speedup",
			pipelined, serial)
	}
	if s := mustCell(t, tableNamed(t, tables, "speedup"), "32 KB", "speedup"); s < 2 {
		t.Fatalf("speedup table reads %.1fx at 32 KB", s)
	}
}

// TestChurnLoadSmoke runs one flap + death + rejoin cycle and checks the
// hard gates: zero loss on every phase, a decommission past DeadTimeout,
// critical repairs completing no later than bulk, and metadata-only flap
// healing (reconciliation, not copies).
func TestChurnLoadSmoke(t *testing.T) {
	tables, err := ChurnLoad(Config{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tableNamed(t, tables, "churn")
	phases := map[string]map[string]float64{}
	for label, cells := range rowsByLabel(t, tb) {
		if cells["zeroLoss"] != 1 {
			t.Fatalf("row lost data: %q %v", label, cells)
		}
		phase, _, _ := strings.Cut(label, "/")
		phases[phase] = cells
	}
	if len(phases) != 3 {
		t.Fatalf("phases %v, want flap/death/rejoin", phases)
	}
	if f := phases["flap"]; f["reconciled"] <= 0 {
		t.Fatalf("flap healed without reconciling inventory: %v", f)
	}
	d := phases["death"]
	if d["copied"] <= 0 || d["decommissions"] != 1 {
		t.Fatalf("death did not repair+decommission: %v", d)
	}
	if d["critClear"] <= 0 || d["critClear"] > d["repaired"] {
		t.Fatalf("critical band did not clear before bulk repair finished: %v", d)
	}
	if rj := phases["rejoin"]; rj["reconciled"] <= 0 {
		t.Fatalf("decommissioned donor rejoined without re-adopting replicas: %v", rj)
	}
}

// TestTable2Smoke checks the trace table covers all four workloads and
// carries the paper's counts and sizes.
func TestTable2Smoke(t *testing.T) {
	tables, err := Table2(Config{Scale: 256, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	tb := tableNamed(t, tables, "traces")
	rows := rowsByLabel(t, tb)
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4", len(rows))
	}
	var types []string
	for _, r := range tb.Rows {
		types = append(types, r.Label[0]+" "+r.Label[1])
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{"BMS", "library (BLCR)", "VM (Xen)"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("labels %q missing %q", joined, want)
		}
	}
	if v := mustCell(t, tb, "BLAST/library (BLCR)/5m0s", "paper images"); v != 902 {
		t.Fatalf("BLCR 5 min paper images %v, want 902", v)
	}
	if v := mustCell(t, tb, "BLAST/library (BLCR)/5m0s", "paper avg"); v != 279.6 {
		t.Fatalf("BLCR 5 min paper avg %v, want 279.6", v)
	}
}
