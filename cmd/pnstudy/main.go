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
// -shard i/n runs the i-th of n contiguous blocks of the task ledger
// (cell-major: a cell's repetitions are adjacent), so shards of cells
// that simulate slower take longer; -worker under pncoord balances load
// instead. -shard, -resume and -merge are exclusive modes, and
// -checkpoint goes with -shard only.
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
	matrix := studycli.RegisterFlags(fs)
	var (
		workers  = fs.Int("workers", runtime.GOMAXPROCS(0), "concurrent runs")
		progress = fs.Bool("progress", false, "report run progress on stderr")
		shard    = fs.String("shard", "", "run shard i/n, the i-th of n contiguous blocks of the task ledger, and write its checkpoint")
		ckpt     = fs.String("checkpoint", "", "checkpoint file to write (-shard)")
		resume   = fs.String("resume", "", "checkpoint file to complete in place")
		merge    = fs.String("merge", "", "comma-separated shard checkpoints to merge")
		workerAt = fs.String("worker", "", "join the pncoord coordinator at this URL (matrix flags come from the coordinator)")
		name     = fs.String("name", "", "worker name reported to the coordinator (-worker; default host-pid)")
		token    = fs.String("token", "", "bearer token presented to a -token guarded coordinator (-worker)")
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
	if err := checkModes(*shard, *ckpt, *resume, *merge); err != nil {
		return err
	}

	st, err := matrix.Config.Build()
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
	return matrix.WriteExports(out)
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

// checkModes refuses the flag combinations run would otherwise settle
// by ignoring one flag: -shard, -resume and -merge each select a mode,
// and -checkpoint names the file only -shard writes.
func checkModes(shard, ckpt, resume, merge string) error {
	var modes []string
	for _, m := range []struct{ flag, value string }{{"-shard", shard}, {"-resume", resume}, {"-merge", merge}} {
		if m.value != "" {
			modes = append(modes, m.flag)
		}
	}
	if len(modes) > 1 {
		return fmt.Errorf("usage: %s and %s select different modes; give one of them", modes[0], modes[1])
	}
	if ckpt != "" && shard == "" {
		return fmt.Errorf("usage: -checkpoint names the file -shard writes; give -shard with it")
	}
	return nil
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
