// Command pnsim regenerates the paper's evaluation artefacts and runs
// named scenarios from the declarative registry. Each experiment id
// corresponds to a table or figure of "Power Neutral Performance Scaling
// for Energy Harvesting MP-SoCs" (DATE 2017); pnsim -list (or
// experiments.IDs) gives the index.
//
// Usage:
//
//	pnsim [-seed N] [-csv dir] [-workers N] <experiment>...
//	pnsim -all
//	pnsim -scenario name [-mc N] [-json file]
//	pnsim -list
//	pnsim -cpuprofile cpu.out -memprofile mem.out ...
//
// With -csv, every series the experiment records is written as
// <dir>/<experiment>.csv for external plotting. Experiments are
// independent and execute concurrently on -workers goroutines (default
// GOMAXPROCS); reports are printed in the order the ids were given.
//
// -scenario runs one registered scenario (see -list for names) and
// prints its outcome; with -mc N it runs a one-cell study of N
// seed-varied repetitions fanned over -workers goroutines. The study
// runs trace-free — online observers accumulate within-band stability,
// supply envelopes and the dwell-time voltage histogram per run, so
// memory stays O(1) per in-flight run at any -mc count — and reports
// the deterministic aggregate (bit-identical for any -workers). -csv
// writes the per-run scalar outcomes (study.StudyOutcome.WriteRunsCSV),
// -json the study aggregate (StudyOutcome.WriteJSON, as pnstudy -json).
//
// -cpuprofile and -memprofile write pprof profiles of whatever workload
// the other flags select, so perf hunts run against the real CLI paths.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"pnps/internal/experiments"
	"pnps/internal/scenario"
	"pnps/internal/stats"
	"pnps/internal/study"
	"pnps/internal/trace"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so the profiling defers flush before
// the process exits (os.Exit would skip them).
func run() int {
	var (
		seed    = flag.Int64("seed", experiments.DefaultSeed, "random seed for stochastic scenarios")
		csvDir  = flag.String("csv", "", "directory to write per-experiment CSV series into")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent experiment/campaign executions")
		all     = flag.Bool("all", false, "run every registered experiment")
		list    = flag.Bool("list", false, "list experiment ids and scenario names, then exit")
		scn     = flag.String("scenario", "", "run a registered scenario instead of experiments")
		mc      = flag.Int("mc", 1, "with -scenario: Monte-Carlo repetitions (a one-cell study when > 1)")
		jsonOut = flag.String("json", "", "with -scenario -mc: write the study aggregate (summary, dwell-time quantiles) as JSON to this file")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file (pprof)")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit (pprof)")
	)
	flag.Parse()

	// Profiling hooks so perf hunts run against the real CLI workloads
	// instead of ad-hoc harnesses: pnsim -memprofile mem.out -scenario
	// stress-clouds -mc 1000, then go tool pprof.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnsim: cpuprofile: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "pnsim: cpuprofile: %v\n", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pnsim: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "pnsim: memprofile: %v\n", err)
			}
		}()
	}

	if *list {
		fmt.Println("experiments:")
		for _, id := range experiments.IDs() {
			fmt.Printf("  %s\n", id)
		}
		fmt.Println("scenarios:")
		for _, s := range scenario.List() {
			fmt.Printf("  %-18s %s\n", s.Name, s.Description)
		}
		return 0
	}

	if *scn != "" {
		if err := runScenario(*scn, *seed, *mc, *workers, *csvDir, *jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "pnsim: %v\n", err)
			return 1
		}
		return 0
	}

	ids := flag.Args()
	if *all {
		ids = experiments.IDs()
	}
	if len(ids) == 0 {
		fmt.Fprintln(os.Stderr, "pnsim: no experiments given; try -list, -all or -scenario")
		return 2
	}
	reps, runErr := experiments.RunAll(context.Background(), experiments.RunAllOptions{
		IDs: ids, Seed: *seed, Workers: *workers,
	})
	failed := runErr != nil
	for i, rep := range reps {
		if rep == nil {
			continue // failure; reported via runErr below
		}
		fmt.Println(rep.String())
		if *csvDir != "" && len(rep.Series) > 0 {
			if err := writeCSV(*csvDir, ids[i], rep.Series...); err != nil {
				fmt.Fprintf(os.Stderr, "pnsim: csv %s: %v\n", ids[i], err)
				failed = true
			}
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "pnsim: %v\n", runErr)
	}
	if failed {
		return 1
	}
	return 0
}

// runScenario executes one registered scenario, or a one-cell
// Monte-Carlo study of it when mc > 1.
func runScenario(name string, seed int64, mc, workers int, csvDir, jsonOut string) error {
	spec, ok := scenario.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (known: %v)", name, scenario.Names())
	}
	if mc <= 1 {
		if jsonOut != "" {
			return fmt.Errorf("-json exports a study aggregate and needs -mc > 1")
		}
		res, err := spec.Run(seed)
		if err != nil {
			return err
		}
		fmt.Printf("scenario %s (seed %d, %.0f s)\n", name, seed, spec.Duration)
		fmt.Printf("  survived:            %v\n", !res.BrownedOut)
		fmt.Printf("  lifetime:            %.1f s\n", res.LifetimeSeconds)
		fmt.Printf("  brownouts/restarts:  %d/%d\n", res.Brownouts, res.Restarts)
		fmt.Printf("  instructions:        %.2f G\n", res.Instructions/1e9)
		fmt.Printf("  threshold interrupts:%d\n", res.Interrupts)
		fmt.Printf("  final supply:        %.3f V\n", res.FinalVC)
		fmt.Printf("  within 5%% of target: %.1f%%\n", res.StabilityWithin(0.05)*100)
		fmt.Printf("  stored energy:       %.3f J -> %.3f J\n",
			res.StorageEnergyStartJ, res.StorageEnergyEndJ)
		if csvDir != "" && res.VC != nil {
			return writeCSV(csvDir, "scenario-"+name, res.VC, res.PowerConsumed, res.FreqGHz)
		}
		return nil
	}

	out, err := study.Study{
		Name: spec.Name, Base: spec, Reps: mc, Seed: seed, Workers: workers,
		// Study-level supply distribution: trace-free dwell-time
		// histogram. The bounds span everything the node can physically
		// do — full brownout decay (0 V) up past any PV open-circuit
		// voltage — so no dwell mass lands in under/overflow and the
		// reported median is never clamped to an artificial bound.
		// 250 bins keep 40 mV resolution.
		VCHistBins: 250, VCHistLo: 0, VCHistHi: 10,
		OnProgress: func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rpnsim: %d/%d campaign runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		},
	}.Run(context.Background())
	if err != nil {
		return err
	}
	if csvDir != "" {
		if err := writeRunsCSV(csvDir, "campaign-"+name, out); err != nil {
			return err
		}
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := out.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", jsonOut)
	}
	s := out.Summary
	fmt.Printf("campaign %s: %d runs (base seed %d)\n", name, s.Runs, seed)
	fmt.Printf("  survival rate:      %.1f%%\n", s.SurvivalRate*100)
	fmt.Printf("  total brownouts:    %d\n", s.TotalBrownouts)
	fmt.Printf("  within 5%% of target: mean %.1f%% (P5 %.1f%%, median %.1f%%, P95 %.1f%%)\n",
		s.Stability.Mean*100, s.Stability.P5*100, s.Stability.Median*100, s.Stability.P95*100)
	p := func(label, unit string, sm stats.Summary, scale float64) {
		fmt.Printf("  %-19s mean %.3f %s (min %.3f, max %.3f, σ %.3f, P25..P75 %.3f..%.3f)\n",
			label+":", sm.Mean*scale, unit, sm.Min*scale, sm.Max*scale, sm.StdDev*scale,
			sm.P25*scale, sm.P75*scale)
	}
	p("instructions", "G", s.Instructions, 1e-9)
	p("lifetime", "s", s.LifetimeSeconds, 1)
	p("final supply", "V", s.FinalVC, 1)
	p("min supply", "V", s.MinVC, 1)
	p("storage Δenergy", "J", s.StorageEnergyDeltaJ, 1)
	if h := out.VCHistogram; h != nil {
		if med, err := h.Quantile(0.5); err == nil {
			fmt.Printf("  supply dwell median: %.3f V over %.0f run-seconds\n", med, h.Total())
		}
	}
	return nil
}

// writeRunsCSV exports the per-run scalar outcomes of a study.
func writeRunsCSV(dir, id string, out *study.StudyOutcome) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := out.WriteRunsCSV(f); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return f.Close()
}

func writeCSV(dir, id string, series ...*trace.Series) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.WriteCSV(f, series...); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return f.Close()
}
