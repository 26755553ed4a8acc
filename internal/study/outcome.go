package study

import (
	"fmt"

	"pnps/internal/stats"
)

// QuantileBand is a five-point quantile summary of a dwell-time
// distribution, computed with Histogram.Quantile — the bin-bounded,
// time-weighted estimator (see the internal/stats package docs).
type QuantileBand struct {
	P5, P25, Median, P75, P95 float64
}

// dwellBand summarises a dwell histogram's quantiles; nil when the
// histogram is absent or empty.
func dwellBand(h *stats.Histogram) *QuantileBand {
	if h == nil || h.Total() <= 0 {
		return nil
	}
	b := &QuantileBand{}
	for _, q := range []struct {
		p   float64
		dst *float64
	}{{0.05, &b.P5}, {0.25, &b.P25}, {0.5, &b.Median}, {0.75, &b.P75}, {0.95, &b.P95}} {
		v, err := h.Quantile(q.p)
		if err != nil {
			return nil
		}
		*q.dst = v
	}
	return b
}

// Summary aggregates runs deterministically (in run order). Each
// stats.Summary carries the quantile band (P5/P25/median/P75/P95)
// alongside the moments.
type Summary struct {
	// Runs is the number of completed runs.
	Runs int
	// SurvivalRate is the fraction of runs without a brownout.
	SurvivalRate float64
	// TotalBrownouts counts brownouts across all runs.
	TotalBrownouts int
	// Stability summarises the per-run fraction of time within ±5% of
	// the target voltage — computed by the online stability observers,
	// so it is bit-identical to the series-derived stability.
	Stability stats.Summary
	// Instructions summarises per-run completed instructions.
	Instructions stats.Summary
	// LifetimeSeconds summarises per-run alive time.
	LifetimeSeconds stats.Summary
	// FinalVC summarises the per-run final supply voltage.
	FinalVC stats.Summary
	// MinVC summarises the per-run supply-voltage minimum (from the
	// online envelope; the paper's brownout-margin view).
	MinVC stats.Summary
	// StorageEnergyDeltaJ summarises per-run stored-energy change
	// (end − start), joules.
	StorageEnergyDeltaJ stats.Summary
}

// CellOutcome is the aggregate of one matrix cell's repetitions.
type CellOutcome struct {
	// Cell identifies the matrix point (axis coordinates, labels, key).
	Cell Cell
	// Summary is the cell's deterministic aggregate with quantile bands.
	Summary Summary
	// VCHistogram is the task-order merge of the cell's dwell-time
	// voltage histograms (VCHistBins > 0 only).
	VCHistogram *stats.Histogram
	// DwellVC summarises the cell's supply dwell-time distribution
	// (VCHistBins > 0 only).
	DwellVC *QuantileBand
}

// Marginal is the aggregate of every run sharing one axis level,
// marginalised over all other axes — the "controller vs. governors,
// everything else averaged out" view of a matrix.
type Marginal struct {
	// Axis and Level name the margin.
	Axis, Level string
	// Summary is the level's aggregate across all other axes.
	Summary Summary
}

// StudyOutcome is a completed study matrix.
type StudyOutcome struct {
	// Axes digests the matrix dimensions (names and level labels, in
	// declaration order) — the column structure of the exports.
	Axes []AxisDigest
	// Cells holds one aggregate per matrix cell, in canonical matrix
	// order.
	Cells []CellOutcome
	// Summary is the deterministic aggregate over every run of the
	// matrix.
	Summary Summary
	// DwellVC summarises the study-wide supply dwell-time distribution
	// (VCHistBins > 0 only).
	DwellVC *QuantileBand
	// Marginals holds one aggregate per axis level (axes in declaration
	// order, levels in axis order); nil for studies without axes.
	Marginals []Marginal
	// VCHistogram is the task-order merge of every run's dwell-time
	// voltage histogram (VCHistBins > 0 only).
	VCHistogram *stats.Histogram
	// Results holds every run in ledger order. In-process runs carry
	// the full *sim.Result; checkpoint-restored runs carry metrics only.
	Results []TaskResult
}

// outcomeAccum is the streaming heart of study aggregation: results
// are folded one at a time, strictly in canonical ledger order, into
// the scalar summary accumulators and the cell/study histograms. Every
// aggregation path — the in-process outcomeFrom over a full result
// slice, Study.Outcome over a merged checkpoint and the chunk Folder
// consuming coordinator submissions — runs through this one
// accumulator, so a sharded, chunked, re-leased, out-of-order study is
// bit-identical to an unsharded Run by construction, not by
// coincidence.
//
// Per-task histograms are merged and dropped as they are folded, so
// the accumulator's histogram state is O(cells × bins) however many
// tasks stream through it; the retained per-task state is the scalar
// records the outcome's Results and quantile bands are made of.
type outcomeAccum struct {
	p *plan

	overall      *summaryAccum
	cellAccums   []*summaryAccum
	marginAccums [][]*summaryAccum
	cellHists    []*stats.Histogram
	vcHist       *stats.Histogram
	results      []TaskResult
}

// newOutcomeAccum prepares an accumulator whose folded results are
// appended to results, an empty slice with room for the whole ledger.
func (p *plan) newOutcomeAccum(results []TaskResult) *outcomeAccum {
	a := &outcomeAccum{
		p:            p,
		overall:      newSummaryAccum(p.total),
		cellAccums:   make([]*summaryAccum, len(p.cells)),
		marginAccums: make([][]*summaryAccum, len(p.st.Axes)),
		cellHists:    make([]*stats.Histogram, len(p.cells)),
		results:      results,
	}
	for i := range a.cellAccums {
		a.cellAccums[i] = newSummaryAccum(p.reps)
	}
	// The matrix is a full cartesian product, so every level of an axis
	// holds the same share of the ledger.
	for ax, axis := range p.st.Axes {
		a.marginAccums[ax] = make([]*summaryAccum, len(axis.Levels))
		for l := range axis.Levels {
			a.marginAccums[ax][l] = newSummaryAccum(p.total / len(axis.Levels))
		}
	}
	return a
}

// mergeHist folds h into *into, materialising the target from the
// first histogram's bounds (bins cloned, never aliased).
func mergeHist(into **stats.Histogram, h *stats.Histogram) error {
	if *into == nil {
		merged := *h // copy bounds; clone the bins
		merged.Bins = append([]float64(nil), h.Bins...)
		*into = &merged
		return nil
	}
	return (*into).Merge(h)
}

// add folds the next ledger result. Results must arrive in canonical
// task order — the invariant every bit-identity guarantee rests on —
// so the accumulator rejects anything else.
func (a *outcomeAccum) add(r TaskResult) error {
	if r.Task.Index != len(a.results) {
		return fmt.Errorf("study: result %d carries task index %d", len(a.results), r.Task.Index)
	}
	cell := a.p.cells[r.Task.Cell]
	a.overall.add(r.Metrics)
	a.cellAccums[cell.Index].add(r.Metrics)
	for ax, l := range cell.Coords {
		a.marginAccums[ax][l].add(r.Metrics)
	}
	if r.Hist != nil {
		if err := mergeHist(&a.cellHists[cell.Index], r.Hist); err != nil {
			return err
		}
		if err := mergeHist(&a.vcHist, r.Hist); err != nil {
			return err
		}
		// Merged; drop the per-task histogram so a large study does
		// not keep O(tasks × bins) dead weight alive in Results.
		r.Hist = nil
	}
	a.results = append(a.results, r)
	return nil
}

// addRecords folds checkpoint records, which must continue the ledger
// in canonical order, restoring each task's dwell histogram on the way.
func (a *outcomeAccum) addRecords(recs []TaskRecord) error {
	for i := range recs {
		rec := &recs[i]
		r := TaskResult{Task: a.p.task(rec.Index), Metrics: rec.Metrics}
		if len(rec.HistBins) > 0 {
			h, err := stats.RestoreHistogram(a.p.st.VCHistLo, a.p.st.VCHistHi, rec.HistBins,
				rec.HistUnder, rec.HistOver, rec.HistTotal)
			if err != nil {
				return fmt.Errorf("study: task %d histogram: %w", rec.Index, err)
			}
			r.Hist = h
		}
		if err := a.add(r); err != nil {
			return err
		}
	}
	return nil
}

// folded returns the number of results accumulated so far.
func (a *outcomeAccum) folded() int { return len(a.results) }

// marginals snapshots the per-axis marginal summaries over the results
// folded so far, skipping levels no run has reached yet — the live
// "controller vs. governors so far" view the coordinator streams as
// chunks land. Snapshotting never mutates the accumulator.
func (a *outcomeAccum) marginals() []Marginal {
	var out []Marginal
	for ax, axis := range a.p.st.Axes {
		for l, lv := range axis.Levels {
			acc := a.marginAccums[ax][l]
			if len(acc.instr) == 0 {
				continue
			}
			s, err := acc.summary()
			if err != nil {
				continue
			}
			out = append(out, Marginal{Axis: axis.Name, Level: lv.Label, Summary: s})
		}
	}
	return out
}

// outcome finalises the accumulator into the study outcome; the full
// ledger must have been folded.
func (a *outcomeAccum) outcome() (*StudyOutcome, error) {
	if len(a.results) != a.p.total {
		return nil, fmt.Errorf("study: %d results for a %d-task ledger", len(a.results), a.p.total)
	}
	out := &StudyOutcome{
		Axes: a.p.fp.clone().Axes, Results: a.results,
		VCHistogram: a.vcHist,
	}
	var err error
	if out.Summary, err = a.overall.summary(); err != nil {
		return nil, err
	}
	out.DwellVC = dwellBand(out.VCHistogram)
	out.Cells = make([]CellOutcome, len(a.p.cells))
	for c := range a.p.cells {
		co := CellOutcome{Cell: a.p.cells[c], VCHistogram: a.cellHists[c]}
		if co.Summary, err = a.cellAccums[c].summary(); err != nil {
			return nil, err
		}
		co.DwellVC = dwellBand(co.VCHistogram)
		out.Cells[c] = co
	}
	for ax, axis := range a.p.st.Axes {
		for l, lv := range axis.Levels {
			m := Marginal{Axis: axis.Name, Level: lv.Label}
			if m.Summary, err = a.marginAccums[ax][l].summary(); err != nil {
				return nil, err
			}
			out.Marginals = append(out.Marginals, m)
		}
	}
	return out, nil
}

// outcomeFrom aggregates completed ledger results (sorted by task
// index, one per ledger entry) into the study outcome. Everything is
// accumulated strictly in task order — scalar summaries and histogram
// merges alike — which is what makes the outcome bit-identical at any
// worker count, across shard and chunk counts and through checkpoint
// round-trips.
func (p *plan) outcomeFrom(results []TaskResult) (*StudyOutcome, error) {
	if len(results) != p.total {
		return nil, fmt.Errorf("study: %d results for a %d-task ledger", len(results), p.total)
	}
	// Fold in place: result i is rewritten into slot i of its own slice.
	a := p.newOutcomeAccum(results[:0])
	for i := range results {
		if err := a.add(results[i]); err != nil {
			return nil, err
		}
	}
	return a.outcome()
}

// summaryAccum collects the per-run scalars of one aggregation bucket.
type summaryAccum struct {
	stability, instr, life, finalVC, minVC, deltaJ []float64
	survived, brownouts                            int
}

func newSummaryAccum(capacity int) *summaryAccum {
	return &summaryAccum{
		stability: make([]float64, 0, capacity),
		instr:     make([]float64, 0, capacity),
		life:      make([]float64, 0, capacity),
		finalVC:   make([]float64, 0, capacity),
		minVC:     make([]float64, 0, capacity),
		deltaJ:    make([]float64, 0, capacity),
	}
}

func (a *summaryAccum) add(m RunMetrics) {
	if m.Survived {
		a.survived++
	}
	a.brownouts += m.Brownouts
	a.stability = append(a.stability, m.Stability)
	a.instr = append(a.instr, m.Instructions)
	a.life = append(a.life, m.LifetimeSeconds)
	a.finalVC = append(a.finalVC, m.FinalVC)
	a.minVC = append(a.minVC, m.MinVC)
	a.deltaJ = append(a.deltaJ, m.StorageEnergyDeltaJ)
}

func (a *summaryAccum) summary() (Summary, error) {
	n := len(a.instr)
	s := Summary{
		Runs:           n,
		SurvivalRate:   float64(a.survived) / float64(n),
		TotalBrownouts: a.brownouts,
	}
	var err error
	if s.Stability, err = stats.Summarize(a.stability); err != nil {
		return s, err
	}
	if s.Instructions, err = stats.Summarize(a.instr); err != nil {
		return s, err
	}
	if s.LifetimeSeconds, err = stats.Summarize(a.life); err != nil {
		return s, err
	}
	if s.FinalVC, err = stats.Summarize(a.finalVC); err != nil {
		return s, err
	}
	if s.MinVC, err = stats.Summarize(a.minVC); err != nil {
		return s, err
	}
	if s.StorageEnergyDeltaJ, err = stats.Summarize(a.deltaJ); err != nil {
		return s, err
	}
	return s, nil
}
