// Package study is the declarative cross-scenario experiment surface:
// one API for the cartesian matrices, Monte-Carlo repetitions and
// parameter sweeps that the paper's results are made of.
//
// A Study is a base scenario.Spec plus typed Axes — storage family,
// irradiance profile, controller parameters, workload, or arbitrary
// func(*Spec) setters — that expand into a deterministic matrix of
// labelled cells. Each cell executes Reps Monte-Carlo repetitions; the
// cell × repetition grid is a flat, stable task ledger (task index =
// cell*Reps + rep) from which every per-run seed derives, so results
// are bit-identical at any worker count and however the ledger is
// split.
//
// Scale-out is first class, and every split is a union of contiguous
// ledger ranges. RunShard(i, n) executes the block
// [i·T/n, (i+1)·T/n) of a T-task ledger and returns a serialisable
// Checkpoint (per-task scalar metrics and dwell histograms);
// MergeCheckpoints unions checkpoints from different shards, processes
// or machines, Resume runs the ranges a checkpoint is missing, and
// Outcome folds a complete checkpoint into the same StudyOutcome an
// unsharded Run produces — bit-identical, because aggregation always
// replays the ledger in canonical task order. Contiguous shards are not
// cost-balanced (neighbouring tasks share a cell and its cost profile);
// the coordinated form balances load dynamically instead. Chunks,
// RunChunk and Folder are that form: fixed-size ledger blocks a
// coordinator leases to workers and folds back, in canonical order, at
// O(outstanding chunks) histogram memory (see internal/coord). A cached
// cell is the chunk of size Reps its repetitions occupy, addressed by
// its cell key (StudyRuns.CellKey, EncodeCell, RestoreCell; see
// internal/serve).
//
// Each exported entry point — Run, RunShard, Resume, Outcome,
// Fingerprint, Chunks, NewFolder, RunChunk — validates and plans its
// study once. A service or worker that does many things with one study
// binds it to a RunStore instead (RunStore.Bind): the binding keeps the
// plan, and with it the fingerprint, for every chunk, cell and folder
// it serves.
//
// Checkpoints cross trust boundaries — files that may be truncated,
// corrupted or hand-edited, and HTTP submissions from remote workers —
// so the protocol validates rather than trusts: every deserialisation
// and merge boundary (ReadCheckpoint, MergeCheckpoints, Resume,
// Outcome, Folder.Fold, StudyRuns.RestoreCell) re-checks record order,
// uniqueness and bounds, histogram-counter consistency and the study
// fingerprint, and Checkpoint.Complete holds only for a valid
// checkpoint. A hostile checkpoint produces a diagnostic error, never a
// silently wrong aggregate.
//
// Tasks with bit-identical inputs share one run. A task's seed reaches
// its simulation only through the realised irradiance profile
// (scenario.Spec.Realise), so tasks of one cell whose realisations have
// equal identities would simulate the same run. Each execution call
// simulates such a group once, from its lowest-index task, and hands
// the read-only *sim.Result and dwell histogram to every task of the
// group; metrics, checkpoints and progress still count tasks. Groups
// never span two calls, so every split of the ledger reproduces Run's
// bytes. The one exception is a RunStore, which keeps cells' cloud-free
// runs for later chunks of any study with the same cell (the same
// seed-free cell key) and matches them on the same exact identity, so
// its chunks reproduce Run's bytes too.
//
// A plain Monte-Carlo run of one scenario is a Study without axes
// (pnsim -mc), and the experiments-package parameter sweep is a Study
// too: there is one execution and aggregation engine.
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
// chunk folds, cached cells, Resume and checkpoint merges all reproduce
// the same StudyOutcome bit-identically for any Workers value.
type Study struct {
	// Name identifies the study in checkpoints and exports.
	Name string
	// Base is the scenario every run starts from.
	Base scenario.Spec
	// Axes are the matrix dimensions, applied in order (last fastest).
	// An empty axis list is a single-cell study — Reps plain
	// Monte-Carlo runs of Base.
	Axes []Axis
	// Reps is the number of Monte-Carlo repetitions per cell (default 1).
	Reps int
	// Seed is the study base seed; per-run seeds derive from it
	// according to SeedMode.
	Seed int64
	// SeedMode selects the seed-derivation scheme (default SeedPerTask).
	SeedMode SeedMode

	// Workers bounds concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, is called after each finished
	// simulation with (completed, total) tasks of the executed task set;
	// a simulation shared by k tasks advances completed by k. Calls are
	// serialised and completed is monotone.
	OnProgress func(completed, total int)
	// FailFast cancels the remaining tasks after the first failure
	// (parameter-sweep semantics); by default every task is attempted.
	FailFast bool

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

// plan is the validated, expanded form of a study and the one form
// every execution, aggregation and keying path works from: a copy of
// the study with its cells, repetitions, ledger size, effective
// stability bands and fingerprint, each derived once.
type plan struct {
	st    Study
	cells []Cell
	reps  int
	total int
	bands []float64
	// A plan that outlives the call hands out copies of fp
	// (Fingerprint.clone) — in checkpoints, outcomes and the Folder and
	// StudyRuns accessors — so a caller's edits cannot reach what it
	// produces next.
	fp Fingerprint
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
	p := &plan{st: st, reps: reps, total: cells * reps, cells: make([]Cell, cells), bands: st.stabilityBands()}
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
	p.fp = Fingerprint{
		Name: st.Name, Base: baseDigest(st.Base),
		Seed: st.Seed, SeedMode: st.SeedMode, Reps: reps,
		VCHistBins: st.VCHistBins, VCHistLo: st.VCHistLo, VCHistHi: st.VCHistHi,
	}
	for _, ax := range st.Axes {
		d := AxisDigest{Name: ax.Name, Levels: make([]string, len(ax.Levels))}
		for i, lv := range ax.Levels {
			d.Levels[i] = lv.Label
		}
		p.fp.Axes = append(p.fp.Axes, d)
	}
	return p, nil
}

// task materialises ledger entry t, its seed derived under the study's
// SeedMode.
func (p *plan) task(t int) Task {
	rep := t % p.reps
	var seed int64
	switch p.st.SeedMode {
	case SeedPerRep:
		seed = batch.Seed(p.st.Seed, rep)
	case SeedShared:
		seed = p.st.Seed
	default:
		seed = batch.Seed(p.st.Seed, t)
	}
	return Task{Index: t, Cell: t / p.reps, Rep: rep, Seed: seed}
}

// cellRange returns cell i's ledger block: the chunk of size reps its
// repetitions occupy.
func (p *plan) cellRange(i int) (TaskRange, error) {
	if i < 0 || i >= len(p.cells) {
		return TaskRange{}, fmt.Errorf("study: cell %d outside [0,%d)", i, len(p.cells))
	}
	return ChunkRange(p.total, p.reps, i), nil
}

// cellSpec derives the spec of cell i's tasks: a trace-free copy of
// the base with the cell's axis levels applied in order. Studies
// summarise runs with online observers, so no run retains a time
// series.
func (p *plan) cellSpec(i int) scenario.Spec {
	sp := p.st.Base
	sp.SkipSeries = true
	cell := p.cells[i]
	for i, ax := range p.st.Axes {
		ax.Levels[cell.Coords[i]].Apply(&sp)
	}
	return sp
}
