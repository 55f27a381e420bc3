// Command bench is the stdchk benchmark: four named workloads driven
// closed-loop from this one process against an in-process grid.Cluster over
// real loopback sockets, with every restored byte compared against what
// was written.
//
// An untraced run produces the end-to-end metrics (what a checkpointing
// application feels: OAB, ASB, restore bandwidth, checkpoints per second,
// bytes uploaded and stored per logical byte, CPU per GB). A separate
// traced run (-trace 1) produces the per-layer metrics from outside the
// program: spans recorded here around calls into each layer's public
// functions, counters the program already publishes, and an attribution of
// the end-to-end time to the layers. The metric names, units, directions
// and regression bounds are in ../BENCHMARK.json; README.md explains each
// workload and what every layer metric is expected to move.
//
//	bench -workload lan_64k -seed 7 -seconds 20 -trace 0   one run, as the driver makes it
//	bench -seed 1 -out out/result.json                     all workloads, untraced then traced
//	bench -compare a.json b.json                           hold two result files against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	rounds   int
	quick    bool
	out      string
	tmp      string
	compare  bool
	manifest string
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (bulk_1m, lan_64k, incr_blcr, meta_small); empty runs all four, untraced then traced")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	fs.IntVar(&o.seconds, "seconds", 20, "measure until the rounds' measured phases add up to this many seconds")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced run")
	fs.IntVar(&o.rounds, "rounds", 0, "measure exactly this many rounds instead of -seconds")
	fs.BoolVar(&o.quick, "quick", false, "tiny op counts, one round, no warm-up round: for tests, not for numbers")
	fs.StringVar(&o.out, "out", "", "write the result file here; a traced run writes trace-<workload>.jsonl next to it")
	fs.StringVar(&o.tmp, "tmp", "", "directory for journals and disk-store probes (default: a fresh one under the system temp dir)")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare a.json b.json")
	fs.StringVar(&o.manifest, "manifest", "", "path of BENCHMARK.json for -compare (default: ./BENCHMARK.json, then ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(o.manifest, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || o.trace < 0 || o.trace > 1 || o.seconds < 1 {
		fmt.Fprintln(stderr, "bench: unexpected arguments; see -h")
		return 2
	}
	res, err := execute(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if res.failed() > 0 {
		return 1
	}
	return 0
}

// result is one result file: the environment it was measured in and, per
// workload, every metric with its per-round values.
type result struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func (r *result) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// workloadResult holds a workload's untraced run (EndToEnd) and traced run
// (PerLayer); a driver-style invocation fills only one of the two.
type workloadResult struct {
	Why         string             `json:"why"`
	WallS       float64            `json:"wall_s,omitempty"`
	TracedWallS float64            `json:"traced_wall_s,omitempty"`
	Rounds      int                `json:"rounds,omitempty"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FirstError  string             `json:"first_error,omitempty"`
	EndToEnd    map[string]summary `json:"end_to_end,omitempty"`
	PerLayer    map[string]summary `json:"per_layer,omitempty"`
	Spans       int                `json:"spans,omitempty"`
}

// execute runs what the options ask for, prints every metric by name with
// its unit, and writes the result file.
func execute(o options, stdout io.Writer) (*result, error) {
	var selected []*workload
	if o.workload == "" {
		selected = workloads
	} else if w := findWorkload(o.workload); w != nil {
		selected = []*workload{w}
	} else {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	tmp := o.tmp
	if tmp == "" {
		dir, err := os.MkdirTemp("", "stdchk-bench-")
		if err != nil {
			return nil, err
		}
		tmp = dir
	} else if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	res := &result{Env: readEnvironment(o.seed, o.quick), Workloads: make(map[string]*workloadResult)}
	for _, w := range selected {
		in := w.generate(o.seed, o.quick)
		wr := &workloadResult{Why: w.why}
		res.Workloads[w.name] = wr
		untraced := o.workload == "" || o.trace == 0
		traced := o.workload == "" || o.trace == 1
		if untraced {
			if err := w.measure(in, o, tmp, wr); err != nil {
				return nil, err
			}
			printMetrics(stdout, w.name, endToEndDefs, wr.EndToEnd)
		}
		if traced {
			tr, err := w.measureTraced(in, o, tmp, wr)
			if err != nil {
				return nil, err
			}
			printMetrics(stdout, w.name, perLayerDefs, wr.PerLayer)
			if o.out != "" {
				if err := os.MkdirAll(filepath.Dir(o.out), 0o755); err != nil {
					return nil, err
				}
				if err := tr.writeJSONL(filepath.Join(filepath.Dir(o.out), "trace-"+w.name+".jsonl")); err != nil {
					return nil, err
				}
			}
		}
		if wr.FirstError != "" {
			fmt.Fprintf(stdout, "%s: %d of %d operations failed, first: %s\n", w.name, wr.Failed, wr.Attempted, wr.FirstError)
		}
	}
	if o.out != "" {
		if err := writeResult(o.out, res); err != nil {
			return nil, err
		}
	}
	if o.workload != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object with the run's verdict and metrics.
		wr := res.Workloads[o.workload]
		defs, vals := endToEndDefs, wr.EndToEnd
		if o.trace == 1 {
			defs, vals = perLayerDefs, wr.PerLayer
		}
		line, err := json.Marshal(driverLine(wr, defs, vals))
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(stdout, string(line))
	}
	return res, nil
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

func driverLine(wr *workloadResult, defs []metricDef, vals map[string]summary) driverResult {
	d := driverResult{
		Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed,
		Metrics: make(map[string]driverMetric, len(defs)),
	}
	for _, def := range defs {
		d.Metrics[def.name] = driverMetric{Value: vals[def.name].Value, Unit: def.unit}
	}
	return d
}

func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]summary) {
	for _, d := range defs {
		s := vals[d.name]
		fmt.Fprintf(w, "%-11s %-36s %16.4f %-6s (q1 %.4f, q3 %.4f, %d rounds, %d samples)\n",
			workload, d.name, s.Value, d.unit, s.Q1, s.Q3, len(s.Rounds), s.Samples)
	}
}

func writeResult(path string, res *result) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// budget decides when a run has measured enough: exactly -rounds rounds,
// or (time-boxed) at least minRounds and until the measured phases add up
// to the target. -quick measures one round.
type budget struct {
	rounds    int
	target    time.Duration
	minRounds int
	started   time.Time
}

// maxRunWall stops a time-boxed run well inside the driver's 180 s limit
// however slow the machine.
const maxRunWall = 120 * time.Second

func (b budget) done(n int, measured time.Duration) bool {
	if b.rounds > 0 {
		return n >= b.rounds
	}
	if n < b.minRounds {
		return false
	}
	return measured >= b.target || time.Since(b.started) > maxRunWall
}

func (o options) budget(share float64, minRounds int) budget {
	b := budget{rounds: o.rounds, minRounds: minRounds, started: time.Now(),
		target: time.Duration(share * float64(o.seconds) * float64(time.Second))}
	if o.quick && b.rounds == 0 {
		b.rounds = 1
	}
	return b
}

// tally folds a round's verdict into the workload result. A set-up failure
// is not a failed operation: nothing was attempted, the run is void.
func (wr *workloadResult) tally(r *round) error {
	if r.setupErr != nil {
		return r.setupErr
	}
	wr.Attempted += r.attempted()
	wr.Failed += r.failed()
	if err := r.firstErr(); err != nil && wr.FirstError == "" {
		wr.FirstError = err.Error()
	}
	return nil
}

// measure is the untraced run: a discarded warm-up round (the first round
// of a process runs up to twice as slow: heap growth, first dials), then
// measured rounds on fresh clusters. Each metric's value is the median of
// its per-round values.
func (w *workload) measure(in *inputs, o options, dir string, wr *workloadResult) error {
	start := time.Now()
	seq := 0
	next := func() *round { seq++; return w.runRound(in, dir, seq, nil) }
	if !o.quick {
		if r := next(); r.setupErr != nil {
			return r.setupErr
		}
	}
	b := o.budget(1, 3)
	var perRound []map[string]float64
	var measured time.Duration
	samples := 0
	for !b.done(len(perRound), measured) {
		r := next()
		if err := wr.tally(r); err != nil {
			return err
		}
		perRound = append(perRound, r.endToEnd())
		measured += r.measured
		samples += r.attempted()
	}
	wr.Rounds = len(perRound)
	wr.EndToEnd = summarizeRounds(endToEndDefs, perRound, samples)
	wr.WallS = time.Since(start).Seconds()
	return nil
}

// measureTraced is the traced run: the layer probes, then rounds that
// alternate traced and untraced so the tracing overhead is the difference
// between neighbours, not between runs.
func (w *workload) measureTraced(in *inputs, o options, dir string, wr *workloadResult) (*tracer, error) {
	start := time.Now()
	tr := newTracer()
	probes, sc, err := runProbes(tr, w, in, o.seed, o.quick, dir)
	if err != nil {
		return nil, err
	}
	seq := 1000
	next := func(t *tracer) *round { seq++; return w.runRound(in, dir, seq, t) }
	if !o.quick {
		if r := next(nil); r.setupErr != nil {
			return nil, r.setupErr
		}
	}
	b := o.budget(0.5, 2)
	var traced []*round
	var perRound []map[string]float64
	var tracedRate, plainRate []float64
	var measured time.Duration
	rate := func(r *round) float64 { return ratio(float64(r.attempted()-r.failed()), r.measured.Seconds()) }
	for !b.done(len(traced), measured) {
		r := next(tr)
		if err := wr.tally(r); err != nil {
			return nil, err
		}
		traced = append(traced, r)
		perRound = append(perRound, r.clientLayer())
		tracedRate = append(tracedRate, rate(r))
		plain := next(nil)
		if err := wr.tally(plain); err != nil {
			return nil, err
		}
		plainRate = append(plainRate, rate(plain))
		measured += r.measured + plain.measured
	}

	// Tail latencies pool every traced round's operations: a single round
	// of a large-image workload has too few to look past the median.
	var ckptMs, openMs []float64
	for _, r := range traced {
		ckptMs = append(ckptMs, values(r.okCkpts(), func(k ckpt) float64 { return ms(k.stored.Sub(k.start)) })...)
		openMs = append(openMs, values(r.okRestores(), func(x restore) float64 { return ms(x.done.Sub(x.start)) })...)
	}
	once := make(map[string]float64)
	once["client.ckpt_tail_ms"], once["client.ckpt_tail_pct"] = tailPercentile(ckptMs)
	once["client.open_tail_ms"], once["client.open_tail_pct"] = tailPercentile(openMs)
	once["client.ckpt_samples"], once["client.open_samples"] = float64(len(ckptMs)), float64(len(openMs))
	once["runtime.peak_rss_mb"] = peakRSSMB()
	once["trace.overhead_pct"] = 100 * (1 - ratio(median(tracedRate), median(plainRate)))
	for k, v := range probes {
		once[k] = v
	}
	for k, v := range attribute(sc, traced) {
		once[k] = v
	}

	samples := len(ckptMs) + len(openMs)
	wr.PerLayer = summarizeRounds(perLayerDefs, perRound, samples)
	for _, d := range perLayerDefs {
		if v, ok := once[d.name]; ok {
			wr.PerLayer[d.name] = summarize(d.unit, []float64{v}, samples)
		}
	}
	wr.Spans = len(tr.spans())
	wr.TracedWallS = time.Since(start).Seconds()
	return tr, nil
}
