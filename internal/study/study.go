// Package study is the declarative cross-scenario experiment surface:
// one API for the cartesian matrices, Monte-Carlo campaigns and
// parameter sweeps that the paper's results are made of.
//
// A Study is a base scenario.Spec plus typed Axes — storage family,
// irradiance profile, controller parameters, workload, or arbitrary
// func(*Spec) setters — that expand into a deterministic matrix of
// labelled cells. Each cell executes Reps Monte-Carlo repetitions; the
// cell × repetition grid is a flat, stable task ledger (task index =
// cell*Reps + rep) from which every per-run seed derives, so results
// are bit-identical at any worker count, across Shard(i, n) splits and
// across checkpoint/resume boundaries.
//
// Scale-out is first class: RunShard executes one strided slice of the
// ledger and returns a serialisable Checkpoint (completed task ranges
// plus per-task scalar metrics and dwell histograms); checkpoints from
// different shards, processes or machines Merge into one, Resume fills
// the gaps, and Outcome folds a complete checkpoint into the same
// StudyOutcome an unsharded Run produces — bit-identical, because
// aggregation always replays the ledger in canonical task order.
// Chunks, RunChunk and Folder are the coordinated form of the same
// contract: fixed-size contiguous ledger blocks a coordinator leases
// to workers and folds back, in canonical order, at O(outstanding
// chunks) histogram memory (see internal/coord).
//
// Checkpoints cross trust boundaries — files that may be truncated,
// corrupted or hand-edited, and HTTP submissions from remote workers —
// so the protocol validates rather than trusts: every deserialisation
// and merge boundary (ReadCheckpoint, Merge, MergeCheckpoints, Resume,
// Outcome, Folder.Fold) re-checks record-index uniqueness and bounds,
// histogram-counter consistency and the study fingerprint, and
// Checkpoint.Complete is a structural coverage check, not a record
// count. A hostile checkpoint produces a diagnostic error, never a
// silently wrong aggregate.
//
// The Monte-Carlo Campaign runner and the experiments-package parameter
// sweep are both implemented on top of this engine.
package study

import (
	"fmt"

	"pnps/internal/batch"
	"pnps/internal/scenario"
)

// Level is one labelled value of an Axis: a named mutation applied to
// the base spec when a cell selects this level. Apply must be
// deterministic and must not retain the spec pointer — specs fan out
// across workers.
type Level struct {
	// Label identifies the level within its axis (unique per axis).
	Label string
	// Apply mutates the spec for runs in cells that select this level.
	Apply func(s *scenario.Spec)
}

// Axis is one dimension of a study matrix: a name plus the labelled
// levels the matrix crosses. Axes are applied to the base spec in
// declaration order, last axis varying fastest in the expanded matrix.
type Axis struct {
	Name   string
	Levels []Level
}

// NewAxis builds an axis from labelled levels; see Storage, Profile,
// Params, Control, Governor, Utilisation, Duration and Setter for the
// typed level constructors.
func NewAxis(name string, levels ...Level) Axis {
	return Axis{Name: name, Levels: levels}
}

// SeedMode selects how per-run seeds derive from the study seed.
type SeedMode int

const (
	// SeedPerTask (the default) gives every cell × repetition its own
	// decorrelated seed, batch.Seed(Seed, task): fully independent
	// stochastic realisations.
	SeedPerTask SeedMode = iota
	// SeedPerRep gives repetition r the same seed batch.Seed(Seed, r)
	// in every cell — common random numbers, so all cells face the same
	// weather realisations and cross-cell comparisons are paired.
	SeedPerRep
	// SeedShared passes Seed verbatim to every run — the parameter-sweep
	// convention where the stochastic scenario is held fixed and only
	// the axes vary.
	SeedShared
)

// Variant perturbs the spec for one run. It receives the repetition
// index and the run's derived seed and mutates the copied spec in place
// after the axis levels have been applied — the Monte-Carlo hook the
// Campaign runner is built on. Axes are the declarative way to express
// structured variation; Vary covers the long tail.
type Variant func(rep int, seed int64, s *scenario.Spec)

// GroupFunc labels one run for grouped aggregation. It runs after the
// axes and Vary, so the label can reflect the perturbation; the spec is
// passed by value — grouping classifies a run, it cannot change it.
type GroupFunc func(rep int, seed int64, s scenario.Spec) string

// DefaultStabilityBands are the fractional supply-stability bands every
// run accumulates online (±5%, the paper's headline metric, and ±10%):
// studies report within-band stability without retaining any trace.
var DefaultStabilityBands = []float64{0.05, 0.10}

// Study declares a cross-scenario experiment matrix: a base spec, the
// axes it is crossed over, and the Monte-Carlo repetition count per
// cell. The zero values of most fields select sensible defaults — only
// Base is required (Reps defaults to 1).
//
// Execution is deterministic end to end: Run, RunShard at any (i, n),
// Resume and checkpoint merges all reproduce the same StudyOutcome
// bit-identically for any Workers value.
type Study struct {
	// Name identifies the study in checkpoints and exports.
	Name string
	// Base is the scenario every run starts from.
	Base scenario.Spec
	// Axes are the matrix dimensions, applied in order (last fastest).
	// An empty axis list is a single-cell study — a plain Monte-Carlo
	// campaign of Reps runs.
	Axes []Axis
	// Reps is the number of Monte-Carlo repetitions per cell (default 1).
	Reps int
	// Seed is the study base seed; per-run seeds derive from it
	// according to SeedMode.
	Seed int64
	// SeedMode selects the seed-derivation scheme (default SeedPerTask).
	SeedMode SeedMode

	// Vary, when non-nil, perturbs each run's spec after the axis levels
	// are applied (the Campaign compatibility hook).
	Vary Variant
	// Group, when non-nil, labels each run; the outcome then carries
	// one GroupSummary per distinct label (first-occurrence ledger
	// order) alongside the cells. Cells are the structured way to
	// partition a study; Group covers ad-hoc, Campaign-style labels.
	Group GroupFunc

	// Workers bounds concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, is called after each completed run with
	// (completed, total) for the executed task set.
	OnProgress func(completed, total int)
	// FailFast cancels the remaining tasks after the first failure
	// (parameter-sweep semantics); by default every task is attempted.
	FailFast bool

	// KeepSeries retains per-run time series (off by default: studies
	// are trace-free, summarising runs with online observers).
	KeepSeries bool
	// StabilityBands overrides DefaultStabilityBands (fractional
	// half-widths around the run's target voltage). The ±5% band the
	// summaries aggregate is always included.
	StabilityBands []float64
	// VCHistBins, when positive, attaches a per-run dwell-time histogram
	// of the supply voltage with this many bins over [VCHistLo,
	// VCHistHi); cells and the study merge them into dwell-time
	// distributions whose quantile bands the summaries report.
	VCHistBins         int
	VCHistLo, VCHistHi float64
}

// Cell is one point of the expanded matrix.
type Cell struct {
	// Index is the cell's position in canonical (row-major, last axis
	// fastest) matrix order.
	Index int
	// Coords holds the selected level index per axis.
	Coords []int
	// Labels holds the selected level label per axis.
	Labels []string
	// Key is the canonical "axis=label ..." identity string.
	Key string
}

// Task is one scheduled run of the ledger: cell × repetition.
type Task struct {
	// Index is the global ledger index: Cell*Reps + Rep.
	Index int
	// Cell and Rep locate the task in the matrix.
	Cell, Rep int
	// Seed is the run's derived seed.
	Seed int64
}

// plan is the validated, expanded form of a study.
type plan struct {
	cells []Cell
	reps  int
	total int
}

// summaryBand is the fractional band the summaries aggregate (the
// paper's headline ±5%).
const summaryBand = 0.05

// stabilityBands returns the effective per-run stability bands, always
// including the summary band: without it, every run's
// StabilityWithin(0.05) would be NaN trace-free and the headline
// stability aggregate would silently vanish.
func (st Study) stabilityBands() []float64 {
	bands := st.StabilityBands
	if len(bands) == 0 {
		bands = DefaultStabilityBands
	}
	for _, pct := range bands {
		if pct == summaryBand {
			return bands
		}
	}
	return append(append([]float64(nil), bands...), summaryBand)
}

// plan validates the study and expands the matrix.
func (st Study) plan() (*plan, error) {
	reps := st.Reps
	if reps == 0 {
		reps = 1
	}
	if reps < 0 {
		return nil, fmt.Errorf("study: repetitions must be positive, got %d", reps)
	}
	if st.VCHistBins > 0 && !(st.VCHistHi > st.VCHistLo) {
		return nil, fmt.Errorf("study: VC histogram bounds [%g,%g) invalid", st.VCHistLo, st.VCHistHi)
	}
	switch st.SeedMode {
	case SeedPerTask, SeedPerRep, SeedShared:
	default:
		return nil, fmt.Errorf("study: unknown seed mode %d", st.SeedMode)
	}
	seen := map[string]bool{}
	cells := 1
	for _, ax := range st.Axes {
		if ax.Name == "" {
			return nil, fmt.Errorf("study: axis needs a name")
		}
		if seen[ax.Name] {
			return nil, fmt.Errorf("study: duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Levels) == 0 {
			return nil, fmt.Errorf("study: axis %q has no levels", ax.Name)
		}
		labels := map[string]bool{}
		for _, lv := range ax.Levels {
			if lv.Label == "" {
				return nil, fmt.Errorf("study: axis %q has an unlabelled level", ax.Name)
			}
			if labels[lv.Label] {
				return nil, fmt.Errorf("study: axis %q has duplicate level %q", ax.Name, lv.Label)
			}
			labels[lv.Label] = true
			if lv.Apply == nil {
				return nil, fmt.Errorf("study: axis %q level %q has no setter", ax.Name, lv.Label)
			}
		}
		cells *= len(ax.Levels)
	}
	p := &plan{reps: reps, total: cells * reps, cells: make([]Cell, cells)}
	coords := make([]int, len(st.Axes))
	for c := 0; c < cells; c++ {
		cell := Cell{
			Index:  c,
			Coords: append([]int(nil), coords...),
			Labels: make([]string, len(st.Axes)),
		}
		for i, ax := range st.Axes {
			cell.Labels[i] = ax.Levels[coords[i]].Label
			if i > 0 {
				cell.Key += " "
			}
			cell.Key += ax.Name + "=" + cell.Labels[i]
		}
		p.cells[c] = cell
		// Odometer increment, last axis fastest.
		for i := len(coords) - 1; i >= 0; i-- {
			coords[i]++
			if coords[i] < len(st.Axes[i].Levels) {
				break
			}
			coords[i] = 0
		}
	}
	return p, nil
}

// taskSeed derives the seed of ledger task t under the study's SeedMode.
func (st Study) taskSeed(t, rep int) int64 {
	switch st.SeedMode {
	case SeedPerRep:
		return batch.Seed(st.Seed, rep)
	case SeedShared:
		return st.Seed
	default:
		return batch.Seed(st.Seed, t)
	}
}

// task materialises ledger entry t.
func (p *plan) task(st Study, t int) Task {
	rep := t % p.reps
	return Task{Index: t, Cell: t / p.reps, Rep: rep, Seed: st.taskSeed(t, rep)}
}

// allTasks enumerates the full ledger in canonical order.
func (p *plan) allTasks(st Study) []Task {
	tasks := make([]Task, p.total)
	for t := range tasks {
		tasks[t] = p.task(st, t)
	}
	return tasks
}

// shardTasks enumerates shard i of n: the strided slice of the ledger
// with task.Index % n == i. Striding balances load — neighbouring tasks
// share a cell and therefore a cost profile.
func (p *plan) shardTasks(st Study, i, n int) ([]Task, error) {
	if n < 1 || i < 0 || i >= n {
		return nil, fmt.Errorf("study: shard %d/%d invalid", i, n)
	}
	var tasks []Task
	for t := i; t < p.total; t += n {
		tasks = append(tasks, p.task(st, t))
	}
	return tasks, nil
}

// taskSpec derives the (possibly perturbed) spec and group label of one
// task: base copy, trace-free default, axis levels in order, then the
// Vary and Group hooks — exactly the Campaign derivation order, so
// campaigns re-implemented on the engine reproduce their old outputs.
func (st Study) taskSpec(p *plan, t Task) (scenario.Spec, string) {
	sp := st.Base
	if !st.KeepSeries {
		sp.SkipSeries = true
	}
	cell := p.cells[t.Cell]
	for i := range st.Axes {
		st.Axes[i].Levels[cell.Coords[i]].Apply(&sp)
	}
	if st.Vary != nil {
		st.Vary(t.Rep, t.Seed, &sp)
	}
	group := ""
	if st.Group != nil {
		group = st.Group(t.Rep, t.Seed, sp)
	}
	return sp, group
}
