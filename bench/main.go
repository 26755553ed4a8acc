// Command bench is the repository benchmark. Each workload drives the
// simulator's study, service or coordinator stack through its public Go
// API for a fixed window, checks that the outputs are correct, and
// prints every metric by name with its unit.
//
//	bash bench/run.sh --workload campaign-long --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -compare before/ after/
//
// run.sh builds this package from the checkout and runs it from the
// checkout root. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; a human-readable
// table goes to standard error. -trace 0 reports the end-to-end metrics.
// -trace 1 runs the same workload with spans recorded around every
// layer call, reports the per-layer metrics, and writes the spans to a
// JSON file. See README.md for the metric glossary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// defaultSeed is the seed the campaign output pins are taken at.
const defaultSeed = 1

// warmSeed seeds every set-up's warm-up work: set-up does the same work
// whatever --seed says, so setup_s compares across seeds.
const warmSeed = 0x5eed

// Execution shape shared by every workload: the box this benchmark was
// sized on has two cores, so two simulation workers and at most two
// client connections.
const (
	simWorkers  = 2
	clientConns = 2
)

// setupRepeats is how many times each workload sets up; setup_s is the
// median, so one slow page-in does not read as a regression.
const setupRepeats = 5

// runner is the state of one benchmark run: its inputs, the metrics the
// workload reports and the correctness problems it finds.
type runner struct {
	seed   int64
	window time.Duration
	tr     *Tracer // nil when untraced
	tmp    string  // scratch directory, removed at exit

	// winStart and winEnd bound the measured window (see openWindow).
	winStart, winEnd time.Time
	// probe times the host between jobs; probes holds the window's
	// samples, each a slowdown against the quiet sizing host.
	probe  *hostProbe
	probes []float64

	metrics   map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (r *runner) set(name string, v float64) { r.metrics[name] = v }

// openWindow starts the measured window and returns its start;
// closeWindow ends it and records peak RSS (set-up plus window, before
// the post-window checks allocate) and the host's slowdown.
func (r *runner) openWindow() time.Time {
	r.winStart = time.Now()
	return r.winStart
}

func (r *runner) closeWindow() {
	r.winEnd = time.Now()
	r.set("peak_rss_mb", peakRSSMB())
	r.set("host.slowdown", r.slowdown())
}

// calibrate samples the host probe; the workload calls it before each
// job of the window (serve: each closed-loop round), while nothing of its
// own runs.
func (r *runner) calibrate() error {
	slow, err := r.probe.sample()
	if err != nil {
		return fmt.Errorf("host probe: %w", err)
	}
	r.probes = append(r.probes, slow)
	return nil
}

// slowdown is how much slower than the quiet sizing host this host ran
// during the window, the median of its probes: measured times are
// divided by it, rates multiplied.
func (r *runner) slowdown() float64 {
	if len(r.probes) == 0 {
		return 1
	}
	return median(r.probes)
}

// traceOverhead estimates the tracer's share of the window: the spans
// recorded inside it, times the measured cost of recording one, over
// the window's capacity on simWorkers cores.
func (r *runner) traceOverhead(spans []Span) float64 {
	lo, hi := r.winStart.Sub(r.tr.t0).Nanoseconds(), r.winEnd.Sub(r.tr.t0).Nanoseconds()
	n := 0
	for _, s := range spans {
		if s.Start >= lo && s.Start <= hi {
			n++
		}
	}
	const calls = 20000
	scratch := newTracer()
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		scratch.Add(0, 1, "calibration", "", t0, t0)
	}
	perSpan := time.Since(t0).Seconds() / calls
	return float64(n) * perSpan / (r.winEnd.Sub(r.winStart).Seconds() * simWorkers)
}

// problem records a correctness failure.
func (r *runner) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// measureSetup sets the workload up setupRepeats times, tearing down
// all but the last instance, and reports the median as setup_s, each
// set-up scaled by the host probe sampled just before it.
func measureSetup[T any](r *runner, setup func() (T, error), teardown func(T)) (T, error) {
	var inst T
	durs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			teardown(inst)
		}
		slow, err := r.probe.sample()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("host probe: %w", err)
		}
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, fmt.Errorf("set-up: %w", err)
		}
		durs = append(durs, time.Since(t0).Seconds()/slow)
		inst = v
	}
	r.set("setup_s", median(durs))
	return inst, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result selects the reported metric set. End-to-end metrics must all
// have been measured; a per-layer metric a workload never set is a layer
// it does not drive and reads 0.
func (r *runner) result() (result, error) {
	defs := endToEnd
	if r.tr != nil {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && r.tr == nil {
			return result{}, fmt.Errorf("workload did not measure %s", d.name)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

// workload is one benchmark input set. full is the size the benchmark
// runs at; smoke is a reduced size the package tests use.
type workload struct {
	name        string
	run         func(r *runner, sz sizes) error
	full, smoke sizes
}

// sizes are the input dimensions of a workload. Fields a workload does
// not use stay zero.
type sizes struct {
	Duration float64 // simulated seconds per run
	Reps     int     // repetitions per matrix cell of one study or recipe
	// Pin is the SHA-256 of the first study's outcome JSON at
	// defaultSeed (campaigns; empty disables the check).
	Pin       string
	Rate      float64 // serve: open-loop job arrivals per second
	Recipes   int     // serve: base recipes populated during set-up
	Burst     int     // serve: closed-loop jobs
	ChunkSize int     // coord: ledger tasks per lease
}

// workloads are sized so one window holds several jobs on a two-core
// box; why each was chosen is in BENCHMARK.json and README.md.
var workloads = []workload{
	{
		name: "campaign-long", run: runCampaign,
		full:  sizes{Duration: 240, Reps: 8, Pin: pinCampaignLong},
		smoke: sizes{Duration: 5, Reps: 1},
	},
	{
		name: "campaign-short", run: runCampaign,
		full:  sizes{Duration: 2, Reps: 1024, Pin: pinCampaignShort},
		smoke: sizes{Duration: 1, Reps: 16},
	},
	{
		name: "serve-mixed", run: runServe,
		full:  sizes{Duration: 2, Reps: 4, Rate: 80, Recipes: 16, Burst: 640},
		smoke: sizes{Duration: 1, Reps: 1, Rate: 40, Recipes: 2, Burst: 8},
	},
	{
		name: "coord-fleet", run: runCoord,
		full:  sizes{Duration: 10, Reps: 256, ChunkSize: 4},
		smoke: sizes{Duration: 1, Reps: 4, ChunkSize: 4},
	},
}

// Outcome pins: the SHA-256 of the first study's outcome JSON at
// defaultSeed and the full size.
const (
	pinCampaignLong  = "c85f76dc4d0688f23778cc797330de1eab59dd2ede0cb6081758596ae53a1aee"
	pinCampaignShort = "09c87e3cd76e782d1d5097924d1336a40a76b27f5947ac37b79e0cdbeb87f7e3"
)

// forEach calls f(i) for every i in [lo, hi) on workers goroutines, which
// take the indices in order, and returns when all calls have.
func forEach(lo, hi, workers int, f func(i int)) {
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	next.Store(int64(lo))
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < hi; i = int(next.Add(1)) - 1 {
				f(i)
			}
		}()
	}
	wg.Wait()
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "input seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics instead of end-to-end ones")
	spans := fs.String("spans", "", "with -trace 1, write the spans here (default .bench_build/spans-<workload>-<seed>.json)")
	compare := fs.Bool("compare", false, "compare two directories of result files: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two directories")
			return 2
		}
		return compareDirs(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: want -workload %s, -seconds > 0 and -trace 0 or 1\n",
			strings.Join(workloadNames(), "|"))
		return 2
	}
	if *trace == 1 && *spans == "" {
		*spans = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", w.name, *seed))
	}
	res, err := runWorkload(w, w.full, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, ".bench_build", *spans)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	printTable(stderr, w.name, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in a fresh directory under scratch and
// returns its result line.
func runWorkload(w workload, sz sizes, seed int64, window time.Duration, traced bool, scratch, spansPath string) (result, error) {
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return result{}, err
	}
	tmp, err := os.MkdirTemp(scratch, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(tmp)
	probe, err := newHostProbe()
	if err != nil {
		return result{}, err
	}
	defer probe.close()
	r := &runner{seed: seed, window: window, tmp: tmp, probe: probe, metrics: map[string]float64{}}
	if traced {
		r.tr = newTracer()
	}
	if err := w.run(r, sz); err != nil {
		return result{}, err
	}
	r.set("fail_frac", ratio(float64(r.failed), float64(r.attempted)))
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "bench: %s: CHECK FAILED: %s\n", w.name, p)
	}
	if traced {
		spans := r.tr.Spans()
		r.set("trace.spans", float64(len(spans)))
		r.set("trace.runs_per_s", r.metrics["runs_per_s"])
		r.set("trace.job_p50_ms", r.metrics["job_p50_ms"])
		r.set("trace.overhead_share", r.traceOverhead(spans))
		if spansPath != "" {
			if err := r.tr.WriteFile(spansPath); err != nil {
				return result{}, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	return r.result()
}

func printTable(w io.Writer, name string, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
