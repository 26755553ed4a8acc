package study

import (
	"context"
	"fmt"
	"sync"

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
// full simulation Result (and the perturbed Spec); results restored
// from a Checkpoint carry only the metrics and histogram — which is all
// aggregation consumes, keeping the two paths bit-identical.
type TaskResult struct {
	// Task locates the run in the ledger.
	Task Task
	// Group is the aggregation label assigned by Study.Group ("" when
	// ungrouped).
	Group string
	// Spec is the (possibly perturbed) scenario the run executed (zero
	// for checkpoint-restored results).
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
// dwell histogram when configured. Fresh slices per run — specs fan out
// across workers and must not share mutable state. Returns the run's
// histogram (nil when the study runs without one).
func (st Study) instrument(cfg *sim.Config, bands []float64) (*stats.Histogram, error) {
	cfg.StabilityBands = append(append([]float64(nil), cfg.StabilityBands...), bands...)
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

// runTasks executes the given ledger tasks over the configured engine.
// Specs, seeds and group labels are derived up front in task order,
// deterministically; results come back in task order, and the batched
// engine is bit-identical to the scalar one by construction, so
// everything downstream is bit-identical for any Workers value and
// either engine.
func (st Study) runTasks(ctx context.Context, p *plan, tasks []Task) ([]TaskResult, error) {
	eng, ok := sim.EngineFor(st.Engine, st.BatchWidth)
	if !ok {
		return nil, fmt.Errorf("study: unknown engine %q", st.Engine)
	}
	bands := st.stabilityBands()
	results := make([]TaskResult, len(tasks))
	for i, t := range tasks {
		sp, group := st.taskSpec(p, t)
		results[i] = TaskResult{Task: t, Group: group, Spec: sp}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var outs []runOutput
	var err error
	if eng.Width() > 1 {
		outs, err = st.runTasksBatched(ctx, cancel, eng, results, bands)
	} else {
		outs, err = st.runTasksScalar(ctx, cancel, results, bands)
	}
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

// runTasksScalar fans individual tasks over the worker pool, one
// sim.Run per task — the reference execution path.
func (st Study) runTasksScalar(ctx context.Context, cancel context.CancelFunc, results []TaskResult, bands []float64) ([]runOutput, error) {
	return batch.Map(ctx, results, func(_ context.Context, r TaskResult) (runOutput, error) {
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
}

// runTasksBatched executes the ledger in lockstep lane packs of the
// engine's width. Consecutive ledger tasks pack together — the ledger is
// cell-major (task index = cell*Reps + rep), so a cell's repetitions
// share a pack and therefore a batch's shared Voc memo; packs fan out
// over the worker pool exactly as scalar tasks do.
// Results scatter back in task order, and each lane is bit-identical to
// its scalar run, so the outcome does not depend on the engine, the
// width or the worker count.
func (st Study) runTasksBatched(ctx context.Context, cancel context.CancelFunc, eng sim.Engine, results []TaskResult, bands []float64) ([]runOutput, error) {
	w := eng.Width()
	type pack struct{ lo, hi int }
	packs := make([]pack, 0, (len(results)+w-1)/w)
	for lo := 0; lo < len(results); lo += w {
		packs = append(packs, pack{lo, min(lo+w, len(results))})
	}
	var mu sync.Mutex
	completed := 0
	outs, err := batch.Map(ctx, packs, func(_ context.Context, g pack) ([]runOutput, error) {
		rs := results[g.lo:g.hi]
		fail := func(lane int, err error) ([]runOutput, error) {
			return nil, st.failTask(cancel, rs[lane].Task, err)
		}
		cfgs := make([]sim.Config, len(rs))
		packOuts := make([]runOutput, len(rs))
		for i := range rs {
			var err error
			if cfgs[i], err = rs[i].Spec.Assemble(rs[i].Task.Seed); err != nil {
				return fail(i, err)
			}
			if packOuts[i].hist, err = st.instrument(&cfgs[i], bands); err != nil {
				return fail(i, err)
			}
		}
		ress, errs := eng.RunGroup(cfgs)
		for i, err := range errs {
			if err != nil {
				return fail(i, err)
			}
		}
		for i := range ress {
			packOuts[i].res = ress[i]
		}
		if st.OnProgress != nil {
			mu.Lock()
			completed += len(rs)
			st.OnProgress(completed, len(results))
			mu.Unlock()
		}
		return packOuts, nil
	}, batch.Options{Workers: st.Workers})
	if err != nil {
		return nil, err
	}
	flat := make([]runOutput, 0, len(results))
	for _, po := range outs {
		flat = append(flat, po...)
	}
	return flat, nil
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
	results, err := st.runTasks(ctx, p, p.allTasks(st))
	if err != nil {
		return nil, err
	}
	return st.outcomeFrom(p, results)
}

// RunShard executes shard i of n — the strided slice of the task ledger
// with index % n == i — and returns its Checkpoint. Shards of the same
// study merge back into one complete checkpoint (see Checkpoint.Merge)
// whose Outcome is bit-identical to an unsharded Run, whatever the
// shard count or worker counts involved.
func (st Study) RunShard(ctx context.Context, i, n int) (*Checkpoint, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	tasks, err := p.shardTasks(st, i, n)
	if err != nil {
		return nil, err
	}
	results, err := st.runTasks(ctx, p, tasks)
	if err != nil {
		return nil, err
	}
	return st.checkpointFrom(p, results)
}

// Resume executes every ledger task the checkpoint has not completed
// and returns the union checkpoint (the input is not mutated). Resuming
// a complete checkpoint is a no-op copy. The checkpoint must belong to
// this study (same fingerprint).
func (st Study) Resume(ctx context.Context, cp *Checkpoint) (*Checkpoint, error) {
	p, err := st.plan()
	if err != nil {
		return nil, err
	}
	if err := st.checkFingerprint(p, cp); err != nil {
		return nil, err
	}
	done := cp.completedSet()
	var tasks []Task
	for t := 0; t < p.total; t++ {
		if !done[t] {
			tasks = append(tasks, p.task(st, t))
		}
	}
	results, err := st.runTasks(ctx, p, tasks)
	if err != nil {
		return nil, err
	}
	fresh, err := st.checkpointFrom(p, results)
	if err != nil {
		return nil, err
	}
	merged := cp.clone()
	if err := merged.Merge(fresh); err != nil {
		return nil, err
	}
	return merged, nil
}
