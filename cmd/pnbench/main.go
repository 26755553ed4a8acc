// Command pnbench runs the repository's key performance benchmarks
// reproducibly and emits a machine-readable JSON report, so perf
// trajectories can be tracked commit over commit without ad-hoc
// harnesses:
//
//	pnbench [-out BENCH_campaign.json] [-bench regex] [-benchtime 5x] [-count 1] [-pkg ./...]
//	pnbench -compare old.json ...
//
// It shells out to `go test -run ^$ -bench <regex> -benchmem` and
// parses the standard benchmark output into one record per benchmark:
// iterations, ns/op, B/op, allocs/op and any custom metrics
// (e.g. meanPct5 for campaign stability). The default benchmark set is
// the perf-critical path: the storage-dispatch alloc guard, the
// end-to-end controller minute, the trace-free campaign, a coordinator
// worker's chunked study, the integrator segment, scenario assembly and
// the serve cache.
//
// -compare gates the fresh run against a previous report: any
// allocs/op increase, any increase in a work-per-op count (the solver
// counters segments/op, steps/op, rejects/op, rhs/op, newton/op and
// exact/op), or an ns/op slowdown beyond 15%, on a benchmark present in
// both reports prints a diagnostic and exits non-zero — the CI perf
// gate, replacing ad-hoc output greps. Alloc and work counts are
// deterministic, so their gate holds on any host. When both reports ran
// the same -bench regex, a baseline benchmark missing from the fresh
// run fails the gate too, so a deleted or renamed benchmark cannot drop
// out of it silently.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// defaultBench selects the benchmarks whose numbers the README quotes.
const defaultBench = "BenchmarkStorageDispatch|BenchmarkSimControllerMinute|BenchmarkCampaignTraceFree|BenchmarkIntegratorSegment|BenchmarkServeCache|BenchmarkScenarioAssemble|BenchmarkPVCurrentAt|BenchmarkCheckpointCodec|BenchmarkNewClouds|BenchmarkStudyChunks|BenchmarkRenderArtifacts"

// defaultBenchtime is the default -benchtime. A fixed iteration count
// (-Nx) keeps runs reproducible; 50 iterations keeps the short
// benchmarks (an integrator segment, a scenario assembly) far enough
// above timer jitter that the -compare tolerance is meaningful.
const defaultBenchtime = "50x"

// Result is one parsed benchmark line.
type Result struct {
	// Name is the full benchmark name including sub-benchmark and the
	// -cpu suffix (e.g. "BenchmarkStorageDispatch/ideal-8").
	Name string `json:"name"`
	// Package is the Go package the benchmark ran in.
	Package string `json:"package"`
	// Iterations is the measured b.N.
	Iterations int64 `json:"iterations"`
	// NsPerOp is wall time per iteration.
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp are present with -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds custom b.ReportMetric values by unit name.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the emitted JSON document. Go version, GOMAXPROCS and the
// CPU count pin the execution environment, so perf-trajectory entries
// from different machines (or container CPU quotas) are comparable —
// an ns/op regression on 4 CPUs is not a regression against a 32-CPU
// baseline.
type Report struct {
	GoVersion  string   `json:"go_version"`
	GOOS       string   `json:"goos"`
	GOARCH     string   `json:"goarch"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Timestamp  string   `json:"timestamp"`
	Bench      string   `json:"bench_regex"`
	Benchtime  string   `json:"benchtime"`
	Results    []Result `json:"results"`
}

func main() {
	var (
		out       = flag.String("out", "BENCH_campaign.json", "output JSON path (- for stdout)")
		bench     = flag.String("bench", defaultBench, "benchmark regex passed to go test -bench")
		benchtime = flag.String("benchtime", defaultBenchtime, "go test -benchtime value (fixed -Nx iteration counts keep runs reproducible)")
		count     = flag.Int("count", 1, "go test -count value")
		pkg       = flag.String("pkg", "./...", "package pattern to benchmark")
		compare   = flag.String("compare", "", "previous report JSON to gate against (>15% ns/op, or any allocs/op or work-per-op increase, exits non-zero)")
		verbose   = flag.Bool("v", false, "echo the raw go test output to stderr")
	)
	flag.Parse()

	// Load the -compare baseline up front: it may be the same path as
	// -out, and the gate must judge against the previous record, not
	// the one this invocation is about to write.
	var baseline Report
	if *compare != "" {
		var err error
		if baseline, err = readReport(*compare); err != nil {
			fmt.Fprintf(os.Stderr, "pnbench: -compare %s: %v\n", *compare, err)
			os.Exit(1)
		}
		// Refuse cross-benchtime comparisons before spending time on the
		// run: an ns/op measured over 5 iterations and one measured over
		// 50 are different experiments, and gating one against the other
		// produces exactly the warmup/jitter false positives the fixed
		// iteration counts exist to prevent.
		if msg, ok := benchtimeMismatch(baseline.Benchtime, *benchtime); !ok {
			fmt.Fprintf(os.Stderr, "pnbench: -compare %s: %s\n", *compare, msg)
			os.Exit(1)
		}
	}

	args := []string{"test", "-run", "^$", "-bench", *bench, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), *pkg}
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if *verbose {
		fmt.Fprint(os.Stderr, string(raw))
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnbench: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	rep := Report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		Bench:      *bench,
		Benchtime:  *benchtime,
		Results:    parseBenchOutput(string(raw)),
	}
	if len(rep.Results) == 0 {
		fmt.Fprintln(os.Stderr, "pnbench: no benchmark results parsed — check the -bench regex")
		os.Exit(1)
	}

	var w *os.File
	if *out == "-" {
		w = os.Stdout
	} else {
		w, err = os.Create(*out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnbench: %v\n", err)
			os.Exit(1)
		}
		defer w.Close()
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "pnbench: %v\n", err)
		os.Exit(1)
	}
	if *out != "-" {
		fmt.Printf("pnbench: wrote %d results to %s\n", len(rep.Results), *out)
	}

	if *compare != "" {
		regressions := compareReports(baseline, rep)
		for _, msg := range regressions {
			fmt.Fprintln(os.Stderr, "pnbench: regression:", msg)
		}
		if len(regressions) > 0 {
			os.Exit(1)
		}
		fmt.Printf("pnbench: no regressions against %s\n", *compare)
	}
}

// nsTolerance is the fractional ns/op slowdown -compare tolerates:
// shared runners jitter, so only slowdowns beyond 15% fail the gate.
// Alloc counts are deterministic and tolerate no increase at all.
const nsTolerance = 0.15

// workMetrics are the custom metrics that count numerical work per op,
// summed from sim.Result.Solver. Like allocs/op they are deterministic,
// so -compare fails any increase: an extra RHS evaluation or a worse
// Newton seed shows on any host, where timing could not tell it from
// jitter.
var workMetrics = []string{"segments/op", "steps/op", "rejects/op", "rhs/op", "newton/op", "exact/op"}

// benchtimeMismatch decides whether a baseline recorded at benchtime
// prev is comparable to a run at benchtime cur. ok is false — with a
// diagnostic — when they differ or when the baseline predates benchtime
// recording; per-iteration numbers from different iteration budgets are
// different experiments and must not be gated against each other.
func benchtimeMismatch(prev, cur string) (msg string, ok bool) {
	switch {
	case prev == "":
		return fmt.Sprintf("baseline records no benchtime; regenerate it at -benchtime %s before comparing", cur), false
	case prev != cur:
		return fmt.Sprintf("baseline benchtime %s != run benchtime %s; rerun with -benchtime %s or regenerate the baseline", prev, cur, prev), false
	}
	return "", true
}

// readReport loads a previously written pnbench report.
func readReport(path string) (Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return Report{}, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// compareReports returns one diagnostic per regression of cur against
// prev: any allocs/op or workMetrics increase, or an ns/op slowdown
// beyond nsTolerance.
// Results are matched by package and full benchmark name; benchmarks
// absent from the baseline are new, not regressions, and are skipped.
// When both reports ran the same -bench regex, a baseline benchmark
// absent from cur is a failure: it was deleted or renamed, and the gate
// would otherwise stop watching it without a word.
func compareReports(prev, cur Report) []string {
	base := make(map[string]Result, len(prev.Results))
	for _, r := range prev.Results {
		base[r.Package+" "+r.Name] = r
	}
	var regs []string
	seen := make(map[string]bool, len(cur.Results))
	for _, r := range cur.Results {
		seen[r.Package+" "+r.Name] = true
		b, ok := base[r.Package+" "+r.Name]
		if !ok {
			continue
		}
		if r.AllocsPerOp != nil && b.AllocsPerOp != nil && *r.AllocsPerOp > *b.AllocsPerOp {
			regs = append(regs, fmt.Sprintf("%s: allocs/op %g -> %g (any increase fails)",
				r.Name, *b.AllocsPerOp, *r.AllocsPerOp))
		}
		for _, m := range workMetrics {
			was, ok1 := b.Metrics[m]
			now, ok2 := r.Metrics[m]
			if ok1 && ok2 && now > was {
				regs = append(regs, fmt.Sprintf("%s: %s %g -> %g (work counts are deterministic; any increase fails)",
					r.Name, m, was, now))
			}
		}
		if b.NsPerOp > 0 && r.NsPerOp > b.NsPerOp*(1+nsTolerance) {
			regs = append(regs, fmt.Sprintf("%s: ns/op %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)",
				r.Name, b.NsPerOp, r.NsPerOp, (r.NsPerOp/b.NsPerOp-1)*100, nsTolerance*100))
		}
	}
	if prev.Bench == cur.Bench {
		for _, b := range prev.Results {
			if !seen[b.Package+" "+b.Name] {
				regs = append(regs, fmt.Sprintf("%s (%s): in the baseline but not in this run; regenerate the baseline if it was removed",
					b.Name, b.Package))
			}
		}
	}
	return regs
}

// parseBenchOutput extracts benchmark result lines from go test output.
// Package context comes from the interleaved "pkg:" lines.
func parseBenchOutput(out string) []Result {
	var results []Result
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "pkg:") {
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			continue
		}
		if r, ok := parseBenchLine(line, pkg); ok {
			results = append(results, r)
		}
	}
	return results
}

// parseBenchLine parses one standard benchmark output line:
//
//	BenchmarkName/sub-8  	 100	 123456 ns/op	 42 B/op	 7 allocs/op	 93.3 pct5
//
// ok is false for non-benchmark lines.
func parseBenchLine(line, pkg string) (Result, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Result{}, false
	}
	fields := strings.Fields(line)
	// Minimum shape: name, iterations, value, unit.
	if len(fields) < 4 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Package: pkg, Iterations: iters}
	seen := false
	// The remainder is (value, unit) pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
			seen = true
		case "B/op":
			b := v
			r.BytesPerOp = &b
		case "allocs/op":
			a := v
			r.AllocsPerOp = &a
		default:
			if r.Metrics == nil {
				r.Metrics = map[string]float64{}
			}
			r.Metrics[unit] = v
		}
	}
	return r, seen
}
