// Command pnstudy runs declarative cross-scenario study matrices: a
// registered base scenario crossed over storage, control and workload
// axes, each cell a seed-range of Monte-Carlo repetitions, with
// bit-identical aggregation at any worker count — and first-class
// sharding, resume and coordinated distributed execution.
//
// Usage:
//
//	pnstudy [-scenario name] [-storage specs] [-control list] [-util list] [-reps N] ...
//	pnstudy -shard i/n -checkpoint shard-i.ckpt ...
//	pnstudy -resume ck.ckpt ...
//	pnstudy -merge shard-0.ckpt,shard-1.ckpt,... ...
//	pnstudy -worker http://coordinator:8080
//	pnstudy -list
//
// The matrix flags (everything except -workers and -progress) define
// the study identity: shard, resume and merge invocations must repeat
// them exactly — checkpoints carry a fingerprint and refuse to mix
// with a different matrix. Worker counts, shard counts and
// interruption points never change the result: the merged outcome is
// bit-identical to a single unsharded run. Checkpoint files are
// versioned binary records (study.Checkpoint.WriteBinary); a file in
// the older JSON format is refused with a diagnostic naming the format
// version.
//
// -worker joins a pncoord coordinator instead: the study definition is
// fetched from the coordinator (no matrix flags needed), rebuilt
// locally, fingerprint-checked, and executed chunk by chunk until the
// study completes. Any number of workers may join and leave; the
// coordinator re-leases the chunks of workers that die.
//
// Axes (each optional; omitting all of them runs a plain Monte-Carlo
// campaign of the base scenario):
//
//	-storage  comma-separated storage levels:
//	            ideal:F        lossless capacitor of F farads
//	            supercap:F     bank with the built-in ESR/leakage parasitics
//	            hybrid:F:R     F-farad node backed by an R-farad reservoir
//	-control  comma-separated control levels: pn (power-neutral), static,
//	          or any Linux governor name (ondemand, conservative, ...)
//	-util     comma-separated workload utilisations in [0,1]
//
// -paired reuses one weather realisation per repetition across every
// cell (common random numbers), so cross-cell comparisons are paired
// rather than confounded by weather luck.
//
// Exports: -cells-csv (one row per cell), -runs-csv (one row per run),
// -json (full aggregate with marginals and dwell-time quantile bands).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"pnps/internal/coord"
	"pnps/internal/scenario"
	"pnps/internal/study"
	"pnps/internal/studycli"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fatal(err)
	}
}

// run executes one pnstudy invocation: args are the command-line flags,
// and the summary and shard reports go to stdout.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pnstudy", flag.ExitOnError)
	var (
		scn      = fs.String("scenario", "stress-clouds", "registered base scenario")
		duration = fs.Float64("duration", 0, "override scenario duration, seconds (0 keeps the registered value)")
		storage  = fs.String("storage", "", "storage axis: ideal:F,supercap:F,hybrid:F:R")
		control  = fs.String("control", "", "control axis: pn, static, or governor names")
		util     = fs.String("util", "", "workload axis: utilisations in [0,1]")
		reps     = fs.Int("reps", 4, "Monte-Carlo repetitions per cell")
		seed     = fs.Int64("seed", 2017, "study base seed")
		paired   = fs.Bool("paired", false, "common random numbers: one realisation per repetition across all cells")
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent runs")
		progress = fs.Bool("progress", false, "report run progress on stderr")
		bins     = fs.Int("bins", 250, "dwell-time voltage histogram bins (0 disables)")
		histLo   = fs.Float64("histlo", 0, "dwell histogram lower bound, volts")
		histHi   = fs.Float64("histhi", 10, "dwell histogram upper bound, volts")
		shard    = fs.String("shard", "", "run one shard i/n of the task ledger and write its checkpoint")
		ckpt     = fs.String("checkpoint", "", "checkpoint file to write (-shard) ")
		resume   = fs.String("resume", "", "checkpoint file to complete in place")
		merge    = fs.String("merge", "", "comma-separated shard checkpoints to merge")
		workerAt = fs.String("worker", "", "join the pncoord coordinator at this URL (matrix flags come from the coordinator)")
		name     = fs.String("name", "", "worker name reported to the coordinator (-worker; default host-pid)")
		token    = fs.String("token", "", "bearer token presented to a -token guarded coordinator (-worker)")
		cellsCSV = fs.String("cells-csv", "", "write per-cell aggregates as CSV to this file")
		runsCSV  = fs.String("runs-csv", "", "write per-run outcomes as CSV to this file")
		jsonOut  = fs.String("json", "", "write the full aggregate as JSON to this file")
		list     = fs.Bool("list", false, "list registered scenarios and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		for _, s := range scenario.List() {
			fmt.Fprintf(stdout, "%-18s %s\n", s.Name, s.Description)
		}
		return nil
	}

	if *workerAt != "" {
		return runWorker(ctx, *workerAt, *name, *token, *workers)
	}

	st, err := studycli.Config{
		Scenario: *scn, Duration: *duration,
		Storage: *storage, Control: *control, Util: *util,
		Reps: *reps, Seed: *seed, Paired: *paired,
		Bins: *bins, HistLo: *histLo, HistHi: *histHi,
	}.Build()
	if err != nil {
		return err
	}
	st.Workers = *workers
	if *progress {
		st.OnProgress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rpnstudy: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}

	var out *study.StudyOutcome
	switch {
	case *merge != "":
		out, err = mergeOutcome(st, strings.Split(*merge, ","))
	case *resume != "":
		out, err = resumeOutcome(ctx, st, *resume)
	case *shard != "":
		err = runShard(ctx, stdout, st, *shard, *ckpt)
	default:
		out, err = st.Run(ctx)
	}
	if err != nil {
		return err
	}
	if out == nil {
		return nil // shard mode: checkpoint written, nothing to aggregate yet
	}

	studycli.PrintOutcome(stdout, st, out)
	if *cellsCSV != "" {
		err = studycli.WriteFileAtomic(*cellsCSV, out.WriteCellsCSV)
	}
	if err == nil && *runsCSV != "" {
		err = studycli.WriteFileAtomic(*runsCSV, out.WriteRunsCSV)
	}
	if err == nil && *jsonOut != "" {
		err = studycli.WriteFileAtomic(*jsonOut, out.WriteJSON)
	}
	return err
}

// runWorker joins a coordinator: the study identity travels as a
// studycli.Config recipe, is rebuilt locally and fingerprint-verified
// before any chunk executes.
func runWorker(ctx context.Context, url, name, token string, workers int) error {
	w := &coord.Worker{
		URL: url, Name: name, Token: token, Workers: workers,
		BuildStudy: func(recipe json.RawMessage) (study.Study, error) {
			// Strict decode: a recipe field this build does not know means
			// flag skew between coordinator and worker — refuse before the
			// fingerprint check has to diagnose it less precisely.
			c, err := studycli.DecodeConfig(recipe)
			if err != nil {
				return study.Study{}, err
			}
			return c.Build()
		},
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pnstudy: "+format+"\n", args...)
		},
	}
	return w.Run(ctx)
}

// parseShard parses "i/n".
func parseShard(s string) (i, n int, err error) {
	parts := strings.Split(s, "/")
	if len(parts) == 2 {
		i, err = strconv.Atoi(parts[0])
		if err == nil {
			n, err = strconv.Atoi(parts[1])
		}
		if err == nil && n >= 1 && i >= 0 && i < n {
			return i, n, nil
		}
	}
	return 0, 0, fmt.Errorf("bad -shard %q (want i/n with 0 <= i < n)", s)
}

// runShard executes one ledger shard and writes its checkpoint.
func runShard(ctx context.Context, stdout io.Writer, st study.Study, shard, ckpt string) error {
	if ckpt == "" {
		return fmt.Errorf("-shard needs -checkpoint to write the shard's state to")
	}
	i, n, err := parseShard(shard)
	if err != nil {
		return err
	}
	cp, err := st.RunShard(ctx, i, n)
	if err != nil {
		return err
	}
	if err := studycli.WriteFileAtomic(ckpt, cp.WriteBinary); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "shard %d/%d: %d of %d tasks done, checkpoint %s\n",
		i, n, len(cp.Records), cp.Total, ckpt)
	fmt.Fprintf(stdout, "missing ranges: %v\n", cp.Missing())
	return nil
}

// resumeOutcome completes a checkpoint in place and returns its outcome.
func resumeOutcome(ctx context.Context, st study.Study, path string) (*study.StudyOutcome, error) {
	cp, err := readCheckpoint(path)
	if err != nil {
		return nil, err
	}
	full, err := st.Resume(ctx, cp)
	if err != nil {
		return nil, err
	}
	if err := studycli.WriteFileAtomic(path, full.WriteBinary); err != nil {
		return nil, err
	}
	return st.Outcome(full)
}

// mergeOutcome merges shard checkpoints; incomplete merges report the
// missing ledger ranges instead of an outcome.
func mergeOutcome(st study.Study, paths []string) (*study.StudyOutcome, error) {
	cps := make([]*study.Checkpoint, len(paths))
	for i, p := range paths {
		cp, err := readCheckpoint(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		cps[i] = cp
	}
	merged, err := study.MergeCheckpoints(cps...)
	if err != nil {
		return nil, err
	}
	if !merged.Complete() {
		return nil, fmt.Errorf("merged checkpoint covers %d of %d tasks; missing ranges %v — run the remaining shards or -resume",
			len(merged.Records), merged.Total, merged.Missing())
	}
	return st.Outcome(merged)
}

func readCheckpoint(path string) (*study.Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return study.ReadCheckpoint(f)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnstudy:", err)
	os.Exit(1)
}
