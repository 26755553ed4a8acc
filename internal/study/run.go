package study

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
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
// full simulation Result (and the cell's Spec); results restored
// from a Checkpoint carry only the metrics and histogram — which is all
// aggregation consumes, keeping the two paths bit-identical.
type TaskResult struct {
	// Task locates the run in the ledger.
	Task Task
	// Spec is the scenario the run executed, built once per cell and
	// shared read-only by every task of the cell that one call ran (nil
	// for checkpoint-restored results).
	Spec *scenario.Spec
	// Metrics are the scalar outcomes aggregation runs on.
	Metrics RunMetrics
	// Result is the full simulation outcome (nil for checkpoint-restored
	// results). Tasks of one cell whose realisations have equal
	// identities share one Result (see runTasks), so it is read-only.
	Result *sim.Result
	// Hist is the per-run dwell-time supply histogram (VCHistBins > 0),
	// shared and read-only like Result.
	Hist *stats.Histogram
}

// runOutput is what one simulation contributes back: the full run
// result plus its dwell histogram.
type runOutput struct {
	res  *sim.Result
	hist *stats.Histogram
}

// realised is one task's seeded part, or the error drawing it failed
// with.
type realised struct {
	r   scenario.Realisation
	err error
}

// failTask wraps a task failure with its ledger identity and, under
// FailFast, cancels the remaining tasks.
func (p *plan) failTask(cancel context.CancelFunc, t Task, err error) error {
	if p.st.FailFast {
		cancel()
	}
	return fmt.Errorf("study task %d (cell %d, seed %d): %w", t.Index, t.Cell, t.Seed, err)
}

// instrument attaches the per-run online observers to an assembled
// config: the study's stability bands always (appended to any
// spec-level bands), the dwell histogram when configured. Specs fan out
// across workers and must not share mutable state, so appended slices
// are fresh per run; a config without bands of its own takes the
// study's bands as they are, since sim only reads them. Returns the
// run's histogram (nil when the study runs without one).
func (p *plan) instrument(cfg *sim.Config) (*stats.Histogram, error) {
	if len(cfg.StabilityBands) == 0 {
		cfg.StabilityBands = p.bands
	} else {
		cfg.StabilityBands = append(append([]float64(nil), cfg.StabilityBands...), p.bands...)
	}
	if p.st.VCHistBins <= 0 {
		return nil, nil
	}
	tis, err := sim.NewTimeInStateObserver(sim.ChanVC, p.st.VCHistLo, p.st.VCHistHi, p.st.VCHistBins)
	if err != nil {
		return nil, err
	}
	cfg.Observers = append(append([]sim.Observer(nil), cfg.Observers...), tis)
	return tis.Hist, nil
}

// runTasks executes the given ledger tasks. A task's seed reaches its
// run only through its realisation (scenario.Spec.Realise), and a
// cell fixes everything else, so the tasks of one cell whose
// realisations have equal identities run the same simulation, bit for
// bit. runTasks therefore realises every task on the worker pool,
// groups the tasks by (cell, identity) in ledger order, and simulates
// each group once, from its lowest-index task: Build, instrument,
// sim.Run. Every task of the group gets that run's *sim.Result and
// dwell histogram, both read-only, and derives its own metrics. A
// realisation without an identity is a group of its own.
//
// Groups of one cell whose realisations differ may still agree on a
// prefix of the run: a cloudy realisation computes its cell's
// clear-sky run until its first cloud. planForks makes one group per
// cell the lead and the groups sharing a prefix with it its followers.
// A lead runs with sim.RunLead, which hands out a snapshot of its
// engine at each follower's fork time, and each follower resumes from
// its snapshot (sim.Resume), bit for bit what sim.Run would return.
// The pool takes the groups cell by cell, each cell's lead first and
// its followers last in fork-time order, so a follower waits only for
// a lead that has started to reach its fork time.
//
// A non-nil sr carries cloud-free runs over from earlier chunks through
// its store (see RunStore): a group the kept run of its cell serves
// takes that run whole or resumes from one of its snapshots, and a
// cloud-free lead of a cell the store holds no run for is kept for
// later chunks. Without sr, groups never outlive one call. Results and
// errors come back in task and group order, so everything downstream
// is bit-identical for any Workers value and any split of the ledger.
func (p *plan) runTasks(ctx context.Context, tasks []Task, sr *StudyRuns) ([]TaskResult, error) {
	results := make([]TaskResult, len(tasks))
	var spec *scenario.Spec
	for i, t := range tasks {
		if spec == nil || t.Cell != tasks[i-1].Cell {
			sp := p.cellSpec(t.Cell)
			spec = &sp
		}
		results[i] = TaskResult{Task: t, Spec: spec}
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	opts := batch.Options{Workers: p.st.Workers}
	reals, err := batch.Map(ctx, results, func(_ context.Context, r TaskResult) (realised, error) {
		rl, err := r.Spec.Realise(r.Task.Seed)
		return realised{rl, err}, nil
	}, opts)
	if err != nil {
		return nil, err
	}
	// Only the groups' first realisations are simulated; the rest
	// become garbage here, before any simulation starts.
	groups := shareGroups(tasks, reals)
	reals = nil
	order := planForks(tasks, groups, sr)

	// Progress counts tasks: a finished group completes all of its
	// members. The mutex serialises the callback, as batch does, so
	// counts are monotone and the completed == total call is last.
	var progress struct {
		sync.Mutex
		completed int
	}
	simulate := func(ctx context.Context, g *groupRun) (runOutput, error) {
		defer func() {
			if p.st.OnProgress != nil {
				progress.Lock()
				progress.completed += len(g.tasks)
				p.st.OnProgress(progress.completed, len(tasks))
				progress.Unlock()
			}
		}()
		if g.kept != nil {
			return *g.kept, nil
		}
		fail := func(err error) (runOutput, error) {
			errs := make([]error, len(g.tasks))
			for k, i := range g.tasks {
				errs[k] = p.failTask(cancel, tasks[i], err)
			}
			return runOutput{}, errors.Join(errs...)
		}
		if g.follows {
			// A lead skipped by a cancelled pool never hands out.
			select {
			case <-g.ready:
			case <-ctx.Done():
				return fail(ctx.Err())
			}
		} else {
			// A failed lead leaves the followers it did not reach
			// without a snapshot: they run from scratch.
			defer func() {
				for _, f := range g.followers {
					if !f.handed {
						close(f.ready)
					}
				}
			}()
		}
		rl, snap := g.real, g.snap
		g.real, g.snap = realised{}, nil
		if rl.err != nil {
			return fail(rl.err)
		}
		cfg, err := results[g.tasks[0]].Spec.Build(rl.r)
		if err != nil {
			return fail(err)
		}
		var out runOutput
		if out.hist, err = p.instrument(&cfg); err != nil {
			return fail(err)
		}
		if len(g.followers) == 0 && g.keep == nil {
			out.res, err = sim.Resume(cfg, snap)
		} else {
			at := make([]float64, len(g.followers), len(g.followers)+forkGrid)
			for k, f := range g.followers {
				at[k] = f.forkAt
			}
			if g.keep != nil {
				at = g.keep.forkTimes(at, cfg.Duration)
			}
			out.res, err = sim.RunLead(cfg, at, func(k int, s *sim.Snapshot) {
				if k >= len(g.followers) {
					g.keep.snaps[k-len(g.followers)] = s
					return
				}
				f := g.followers[k]
				f.snap, f.handed = s, true
				close(f.ready)
			})
			if err == nil && g.keep != nil {
				g.keep.out = out
				sr.store.keep(g.keep)
			}
		}
		if err != nil {
			return fail(err)
		}
		return out, nil
	}
	outs, errs := batch.MapEach(ctx, order, simulate, opts)
	if errors.Join(errs...) != nil {
		byGroup := make([]error, len(groups))
		for k, g := range order {
			byGroup[g.index] = errs[k]
		}
		return nil, errors.Join(byGroup...)
	}
	for k, g := range order {
		m := metricsFrom(outs[k].res)
		for _, i := range g.tasks {
			results[i].Result = outs[k].res
			results[i].Metrics = m
			results[i].Hist = outs[k].hist
		}
	}
	return results, nil
}

// groupRun is one simulation of runTasks: a share group and its part
// in prefix forking.
type groupRun struct {
	// index is the group's place in ledger order; tasks are its task
	// positions, lowest first.
	index int
	tasks []int
	// real is the first task's realisation, which the group simulates.
	real realised
	// A lead's followers, by fork time.
	followers []*groupRun
	// follows marks a follower, and forkAt is the time up to which its
	// realisation agrees with its lead's. The lead sets snap and
	// handed, then closes ready; snap stays nil when the lead cannot
	// fork or fails first, and the follower then runs from scratch.
	// A group a kept run serves gets its snap at planning and waits
	// for nothing.
	follows bool
	forkAt  float64
	ready   chan struct{}
	handed  bool
	snap    *sim.Snapshot
	// kept is the kept run of the group's own realisation, which the
	// group takes instead of simulating; keep, on a lead, is the kept
	// run its simulation fills in for later chunks.
	kept *runOutput
	keep *keptRun
}

// planForks picks the lead of each cell's groups: among the groups
// with a known clear-sky prefix (scenario.Realisation.ClearUntil), the
// one whose prefix is longest, the cloud-free group when there is one.
// It agrees with every other group at least up to that group's own
// clear-sky prefix, and every group that shares a positive prefix with
// it follows it. It returns the order to run the groups in: cell by
// cell, the lead, the groups that do not follow, then the followers by
// fork time, the order in which the lead hands out their snapshots.
// Groups arrive in ledger order, so a cell's groups are contiguous.
//
// With a run store, the groups the kept run of their cell serves
// (keptRun.serves) come first and take no part in the rest, and a cell
// without a kept run whose lead is cloud-free keeps that lead's run.
func planForks(tasks []Task, groups []groupRun, sr *StudyRuns) []*groupRun {
	order := make([]*groupRun, 0, len(groups))
	var buf [16]*groupRun
	rest := buf[:0]
	for lo, hi := 0, 0; lo < len(groups); lo = hi {
		cell := tasks[groups[lo].tasks[0]].Cell
		kept := sr.lookup(cell)
		rest = rest[:0]
		for hi = lo; hi < len(groups) && tasks[groups[hi].tasks[0]].Cell == cell; hi++ {
			if g := &groups[hi]; kept.serves(g) {
				order = append(order, g)
			} else {
				rest = append(rest, g)
			}
		}
		var lead *groupRun
		best := 0.0
		for _, g := range rest {
			if g.real.err == nil {
				if c := g.real.r.ClearUntil(); c > best {
					lead, best = g, c
				}
			}
		}
		if lead == nil {
			order = append(order, rest...)
			continue
		}
		order = append(order, lead)
		for _, g := range rest {
			if g == lead {
				continue
			}
			tc := 0.0
			if g.real.err == nil {
				tc = lead.real.r.SharedUntil(g.real.r)
			}
			if !(tc > 0) {
				order = append(order, g)
				continue
			}
			g.follows, g.forkAt, g.ready = true, tc, make(chan struct{})
			lead.followers = append(lead.followers, g)
		}
		sort.SliceStable(lead.followers, func(i, j int) bool {
			return lead.followers[i].forkAt < lead.followers[j].forkAt
		})
		order = append(order, lead.followers...)
		if sr != nil && kept == nil && math.IsInf(best, 1) {
			lead.keep = newKeptRun(sr.keys[cell], lead.real.r)
		}
	}
	return order
}

// shareGroups partitions task positions into the groups that run one
// simulation: tasks of one cell whose realisations have equal
// identities, in ledger order, so each group's first member is its
// lowest-index task and carries its realisation. A task whose
// realisation failed or has no identity is a group of its own. Tasks
// arrive in ledger order, so a cell's tasks are contiguous and the
// identity map holds one cell at a time.
func shareGroups(tasks []Task, reals []realised) []groupRun {
	var (
		groups []groupRun
		byID   = map[string]int{}
		buf    [64]byte // room for the identity of a profile with one cloud
		id     = buf[:0]
		cell   = -1
	)
	for i, t := range tasks {
		if t.Cell != cell {
			clear(byID)
			cell = t.Cell
		}
		ok := false
		if reals[i].err == nil {
			id, ok = reals[i].r.AppendIdentity(id[:0])
		}
		if ok {
			if k, seen := byID[string(id)]; seen {
				groups[k].tasks = append(groups[k].tasks, i)
				continue
			}
			// Only a later task of the cell can join the group.
			if i+1 < len(tasks) && tasks[i+1].Cell == cell {
				byID[string(id)] = len(groups)
			}
		}
		groups = append(groups, groupRun{index: len(groups), tasks: []int{i}, real: reals[i]})
	}
	return groups
}

// runRanges executes the tasks of the given ledger ranges, which must
// be ascending and disjoint, so results come back in ledger order. A
// non-nil sr shares cloud-free runs through its store (runTasks).
func (p *plan) runRanges(ctx context.Context, sr *StudyRuns, rs ...TaskRange) ([]TaskResult, error) {
	n := 0
	for _, r := range rs {
		n += r.Hi - r.Lo
	}
	tasks := make([]Task, 0, n)
	for _, r := range rs {
		for t := r.Lo; t < r.Hi; t++ {
			tasks = append(tasks, p.task(t))
		}
	}
	return p.runTasks(ctx, tasks, sr)
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
	results, err := p.runRanges(ctx, nil, TaskRange{Lo: 0, Hi: p.total})
	if err != nil {
		return nil, err
	}
	return p.outcomeFrom(results)
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
	results, err := p.runRanges(ctx, nil, TaskRange{Lo: i * p.total / n, Hi: (i + 1) * p.total / n})
	if err != nil {
		return nil, err
	}
	return p.checkpointFrom(results), nil
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
	if err := p.checkFingerprint(cp); err != nil {
		return nil, err
	}
	results, err := p.runRanges(ctx, nil, cp.Missing()...)
	if err != nil {
		return nil, err
	}
	return MergeCheckpoints(cp, p.checkpointFrom(results))
}
