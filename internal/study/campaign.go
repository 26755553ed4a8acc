package study

import (
	"context"
	"fmt"

	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/stats"
)

// Campaign fans Monte-Carlo variations of a base scenario across the
// deterministic batch engine: run k executes Base (perturbed by Vary)
// with seed batch.Seed(Seed, k). It is the single-cell special case of
// a Study — Run builds one and executes its task ledger — kept as a
// first-class surface because "N seed-varied repetitions of one
// scenario, grouped by an ad-hoc label" is the everyday shape of
// Monte-Carlo work. Results are collected in run order and aggregated
// sequentially, so a campaign's Outcome is bit-identical for any
// Workers value.
//
// Campaigns are trace-free by default: each run carries online
// observers (stability bands, the supply envelope, optionally a
// dwell-time voltage histogram) instead of time series, so memory per
// in-flight run is O(1) and a 10k-run campaign needs no more memory
// than its worker count times one run.
type Campaign struct {
	// Base is the scenario every run starts from.
	Base scenario.Spec
	// Runs is the number of Monte-Carlo repetitions (must be positive).
	Runs int
	// Seed is the campaign base seed; per-run seeds derive from it.
	Seed int64
	// Vary, when non-nil, perturbs the spec for each run; a nil Vary
	// varies only the seed (independent weather realisations).
	Vary Variant
	// Group, when non-nil, labels each run; the Outcome then carries one
	// GroupSummary per distinct label (in first-occurrence run order)
	// alongside the overall Summary.
	Group GroupFunc
	// Workers bounds concurrency; <= 0 selects GOMAXPROCS.
	Workers int
	// OnProgress, when non-nil, is called after each completed run with
	// (completed, total).
	OnProgress func(completed, total int)
	// KeepSeries retains per-run time series. Off by default: a
	// campaign of long scenarios would otherwise hold every trace of
	// every run in memory at once. Stability and envelope aggregation
	// are identical either way — the online accumulators are
	// bit-identical to the series analyses.
	KeepSeries bool
	// StabilityBands overrides DefaultStabilityBands (fractional
	// half-widths around the run's target voltage). The ±5% band the
	// Summary aggregates is always included, whatever is listed here.
	StabilityBands []float64
	// VCHistBins, when positive, attaches a per-run dwell-time histogram
	// of the supply voltage with this many bins over [VCHistLo,
	// VCHistHi) and merges them (in run order) into Outcome.VCHistogram
	// — the campaign-level "time at each operating voltage" distribution
	// (paper Fig. 13) without any trace.
	VCHistBins         int
	VCHistLo, VCHistHi float64
}

// RunResult pairs one campaign run with its identity.
type RunResult struct {
	// Index is the run's position in the campaign (0-based).
	Index int
	// Seed is the derived per-run seed.
	Seed int64
	// Group is the aggregation label assigned by Campaign.Group ("" when
	// ungrouped).
	Group string
	// Spec is the (possibly perturbed) scenario the run executed.
	Spec scenario.Spec
	// Result is the simulation outcome.
	Result *sim.Result
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
	// so it is available (and bit-identical) with or without KeepSeries.
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

// GroupSummary is the aggregate of the runs sharing one Group label.
type GroupSummary struct {
	// Name is the group label.
	Name string
	// Summary is the group's aggregate.
	Summary Summary
}

// Outcome is a completed campaign.
type Outcome struct {
	// Results holds every run in campaign order. Trace-free campaigns
	// retain only scalar outcomes per run (sim.Result without series).
	Results []RunResult
	// Summary is the deterministic aggregate over all runs.
	Summary Summary
	// Groups holds one aggregate per Campaign.Group label, ordered by
	// first occurrence; nil when the campaign was ungrouped.
	Groups []GroupSummary
	// VCHistogram is the run-order merge of the per-run dwell-time
	// voltage histograms (VCHistBins > 0 only).
	VCHistogram *stats.Histogram
}

// Run executes the campaign as a single-cell Study whose repetition
// ledger is the campaign's run list, and maps the study outcome onto
// the campaign's: the same aggregator, so the two agree bit for bit.
// Runs are independent simulations fanned over batch.Map; a failing run
// fails the campaign (index-ordered error aggregation), and cancelling
// ctx abandons unstarted runs.
func (c Campaign) Run(ctx context.Context) (*Outcome, error) {
	if c.Runs <= 0 {
		return nil, fmt.Errorf("study: campaign needs a positive run count, got %d", c.Runs)
	}
	st := Study{
		Name: c.Base.Name, Base: c.Base, Reps: c.Runs, Seed: c.Seed,
		Vary: c.Vary, Group: c.Group,
		Workers:    c.Workers,
		OnProgress: c.OnProgress,
		KeepSeries: c.KeepSeries, StabilityBands: c.StabilityBands,
		VCHistBins: c.VCHistBins, VCHistLo: c.VCHistLo, VCHistHi: c.VCHistHi,
	}
	so, err := st.Run(ctx)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Results: make([]RunResult, len(so.Results)),
		Summary: so.Summary, Groups: so.Groups, VCHistogram: so.VCHistogram,
	}
	for i := range so.Results {
		r := &so.Results[i]
		out.Results[i] = RunResult{
			Index: r.Task.Index, Seed: r.Task.Seed, Group: r.Group,
			Spec: r.Spec, Result: r.Result,
		}
	}
	return out, nil
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
