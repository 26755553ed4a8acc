package study

import (
	"context"
	"fmt"

	"pnps/internal/batch"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/stats"
)

// RunMetrics are the scalar outcomes of one run — the complete input of
// study aggregation, small enough to checkpoint by the million. Every
// summary a study reports derives from these (plus the optional dwell
// histogram), so outcomes rebuilt from checkpoints are bit-identical to
// in-process runs.
type RunMetrics struct {
	// Survived is true when the run completed without a brownout.
	Survived bool `json:"survived"`
	// Brownouts counts supply collapses.
	Brownouts int `json:"brownouts"`
	// Stability is the fraction of the run within ±5% of the target
	// voltage (the paper's headline metric), from the online band.
	Stability float64 `json:"stability_pct5"`
	// Instructions is total completed work.
	Instructions float64 `json:"instructions"`
	// LifetimeSeconds is accumulated alive time.
	LifetimeSeconds float64 `json:"lifetime_s"`
	// FinalVC is the supply voltage at the end of the run.
	FinalVC float64 `json:"final_vc_v"`
	// MinVC is the supply-voltage minimum, from the online envelope.
	MinVC float64 `json:"min_vc_v"`
	// StorageEnergyDeltaJ is the stored-energy change (end − start).
	StorageEnergyDeltaJ float64 `json:"storage_denergy_j"`
}

// metricsFrom extracts the aggregation scalars from one run result.
func metricsFrom(res *sim.Result) RunMetrics {
	return RunMetrics{
		Survived:            !res.BrownedOut,
		Brownouts:           res.Brownouts,
		Stability:           res.StabilityWithin(summaryBand),
		Instructions:        res.Instructions,
		LifetimeSeconds:     res.LifetimeSeconds,
		FinalVC:             res.FinalVC,
		MinVC:               res.VCEnvelope.Min,
		StorageEnergyDeltaJ: res.StorageEnergyEndJ - res.StorageEnergyStartJ,
	}
}

// TaskResult is one completed ledger task. In-process runs carry the
// full simulation Result (and the cell's Spec); results restored
// from a Checkpoint carry only the metrics and histogram — which is all
// aggregation consumes, keeping the two paths bit-identical.
type TaskResult struct {
	// Task locates the run in the ledger.
	Task Task
	// Spec is the scenario the run executed (zero for
	// checkpoint-restored results).
	Spec scenario.Spec
	// Metrics are the scalar outcomes aggregation runs on.
	Metrics RunMetrics
	// Result is the full simulation outcome (nil for checkpoint-restored
	// results).
	Result *sim.Result
	// Hist is the per-run dwell-time supply histogram (VCHistBins > 0).
	Hist *stats.Histogram
}

// runOutput is what one executed task contributes back: the full run
// result plus its dwell histogram.
type runOutput struct {
	res  *sim.Result
	hist *stats.Histogram
}

// failTask wraps a task failure with its ledger identity and, under
// FailFast, cancels the remaining tasks.
func (st Study) failTask(cancel context.CancelFunc, t Task, err error) error {
	if st.FailFast {
		cancel()
	}
	return fmt.Errorf("study task %d (cell %d, seed %d): %w", t.Index, t.Cell, t.Seed, err)
}

// instrument attaches the per-run online observers to an assembled
// config: stability bands always (appended to any spec-level bands), the
// dwell histogram when configured. Specs fan out across workers and
// must not share mutable state, so appended slices are fresh per run;
// a config without bands of its own takes the study's bands as they
// are, since sim only reads them. Returns the run's histogram (nil when
// the study runs without one).
func (st Study) instrument(cfg *sim.Config, bands []float64) (*stats.Histogram, error) {
	if len(cfg.StabilityBands) == 0 {
		cfg.StabilityBands = bands
	} else {
		cfg.StabilityBands = append(append([]float64(nil), cfg.StabilityBands...), bands...)
	}
	if st.VCHistBins <= 0 {
		return nil, nil
	}
	tis, err := sim.NewTimeInStateObserver(sim.ChanVC, st.VCHistLo, st.VCHistHi, st.VCHistBins)
	if err != nil {
		return nil, err
	}
	cfg.Observers = append(append([]sim.Observer(nil), cfg.Observers...), tis)
	return tis.Hist, nil
}

// runTasks executes the given ledger tasks, one sim.Run per task fanned
// over the worker pool. Specs and seeds are derived up front in task
// order, deterministically, and results come back in task order, so
// everything downstream is bit-identical for any Workers value.
func (st Study) runTasks(ctx context.Context, p *plan, tasks []Task) ([]TaskResult, error) {
	bands := st.stabilityBands()
	results := make([]TaskResult, len(tasks))
	for i, t := range tasks {
		results[i] = TaskResult{Task: t, Spec: st.taskSpec(p, t)}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	outs, err := batch.Map(ctx, results, func(_ context.Context, r TaskResult) (runOutput, error) {
		fail := func(err error) (runOutput, error) {
			return runOutput{}, st.failTask(cancel, r.Task, err)
		}
		cfg, err := r.Spec.Assemble(r.Task.Seed)
		if err != nil {
			return fail(err)
		}
		var out runOutput
		if out.hist, err = st.instrument(&cfg, bands); err != nil {
			return fail(err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			return fail(err)
		}
		out.res = res
		return out, nil
	}, batch.Options{Workers: st.Workers, OnProgress: st.OnProgress})
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].Result = outs[i].res
		results[i].Metrics = metricsFrom(outs[i].res)
		results[i].Hist = outs[i].hist
	}
	return results, nil
}

// runRanges executes the tasks of the given ledger ranges, which must
// be ascending and disjoint, so results come back in ledger order.
func (st Study) runRanges(ctx context.Context, p *plan, rs ...TaskRange) ([]TaskResult, error) {
	n := 0
	for _, r := range rs {
		n += r.Hi - r.Lo
	}
	tasks := make([]Task, 0, n)
	for _, r := range rs {
		for t := r.Lo; t < r.Hi; t++ {
			tasks = append(tasks, p.task(st, t))
		}
	}
	return st.runTasks(ctx, p, tasks)
}

// Run executes the whole study matrix and aggregates it. Runs are
// independent simulations fanned over the batch engine; a failing run
// fails the study (index-ordered error aggregation) and cancelling ctx
// abandons unstarted runs. The outcome is bit-identical for any
// Workers value and to any sharded execution of the same study.
func (st Study) Run(ctx context.Context) (*StudyOutcome, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	results, err := st.runRanges(ctx, p, TaskRange{Lo: 0, Hi: p.total})
	if err != nil {
		return nil, err
	}
	return st.outcomeFrom(p, results)
}

// RunShard executes shard i of n — the contiguous ledger block
// [i·T/n, (i+1)·T/n) of a T-task ledger — and returns its Checkpoint;
// when n > T some blocks are empty and so are their checkpoints. The
// shards of a study merge back (MergeCheckpoints) into one complete
// checkpoint whose Outcome is bit-identical to an unsharded Run,
// whatever the shard count or worker counts involved. Blocks are not
// cost-balanced: a shard of slow cells finishes last, where pncoord's
// chunk leasing balances load as workers finish.
func (st Study) RunShard(ctx context.Context, i, n int) (*Checkpoint, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if n < 1 || i < 0 || i >= n {
		return nil, fmt.Errorf("study: shard %d/%d invalid", i, n)
	}
	results, err := st.runRanges(ctx, p, TaskRange{Lo: i * p.total / n, Hi: (i + 1) * p.total / n})
	if err != nil {
		return nil, err
	}
	return st.checkpointFrom(p, results), nil
}

// Resume executes the ledger ranges the checkpoint is missing and
// returns the union checkpoint (the input is not mutated). Resuming a
// complete checkpoint is a no-op copy. The checkpoint must belong to
// this study (same fingerprint).
func (st Study) Resume(ctx context.Context, cp *Checkpoint) (*Checkpoint, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if err := st.checkFingerprint(p, cp); err != nil {
		return nil, err
	}
	results, err := st.runRanges(ctx, p, cp.Missing()...)
	if err != nil {
		return nil, err
	}
	return MergeCheckpoints(cp, st.checkpointFrom(p, results))
}
