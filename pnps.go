// Package pnps is a reproduction of "Power Neutral Performance Scaling
// for Energy Harvesting MP-SoCs" (Fletcher, Balsamo, Merrett — DATE 2017)
// as a reusable Go library.
//
// A power-neutral system couples an energy-harvesting source (here a
// photovoltaic array) directly to a heterogeneous multicore platform
// through a tiny buffer capacitor — no battery, no supercapacitor bank.
// A controller watches the supply-node voltage through two sliding
// thresholds and continuously re-selects the platform's operating
// performance point (DVFS level + online big/LITTLE cores) so that the
// power consumed matches the power harvested instant by instant.
//
// This package is the facade over the implementation packages:
//
//   - internal/core      — the power-neutral controller (the paper's contribution)
//   - internal/pv        — single-diode PV array model + irradiance profiles
//   - internal/soc       — Exynos5422 big.LITTLE platform model
//   - internal/monitor   — threshold-interrupt hardware model
//   - internal/governor  — Linux cpufreq governor baselines
//   - internal/sim       — the ODE/discrete-event co-simulation engine
//   - internal/workload  — smallpt path tracer + load profiles
//   - internal/scenario  — declarative run specs + named registry
//   - internal/study     — cross-scenario matrices, campaigns, sharding
//   - internal/experiments — regeneration of every paper table/figure
//
// The type aliases below form the stable public API; see the examples/
// directory for end-to-end usage.
package pnps

import (
	"context"
	"io"

	"pnps/internal/batch"
	"pnps/internal/buffer"
	"pnps/internal/core"
	"pnps/internal/experiments"
	"pnps/internal/governor"
	"pnps/internal/pv"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/study"
)

// Controller types (the paper's contribution).
type (
	// ControllerParams are the tuning parameters of the power-neutral
	// scheme: threshold width/slide and the hot-plug slope thresholds.
	ControllerParams = core.Params
	// Controller is the runtime decision engine.
	Controller = core.Controller
	// ControllerStats summarises controller activity.
	ControllerStats = core.Stats
)

// Platform types.
type (
	// OPP is an operating performance point (frequency level + cores).
	OPP = soc.OPP
	// CoreConfig is a big.LITTLE online-core configuration.
	CoreConfig = soc.CoreConfig
	// Platform is the simulated ODROID-XU4 / Exynos5422 board.
	Platform = soc.Platform
)

// Harvesting types.
type (
	// PVArray is the single-diode photovoltaic array model.
	PVArray = pv.Array
	// IrradianceProfile yields irradiance (W/m²) over time.
	IrradianceProfile = pv.Profile
)

// Simulation types.
type (
	// SimConfig assembles one co-simulation run.
	SimConfig = sim.Config
	// SimResult carries traces and outcome metrics of a run.
	SimResult = sim.Result
	// Governor is a baseline cpufreq-style frequency governor.
	Governor = governor.Governor
)

// Observer types: the streaming observer pipeline. Observers receive
// one Sample per accepted integration step and discrete event and
// summarise a run online, so trace-free runs (SimConfig.SkipSeries)
// keep O(1) memory; series capture is itself just the engine's first
// observer.
type (
	// Observer receives the engine's sample stream.
	Observer = sim.Observer
	// Sample is one point of the observation stream.
	Sample = sim.Sample
	// Channel selects which Sample signal a generic observer watches.
	Channel = sim.Channel
	// Envelope is an online min/max/time-mean accumulator.
	Envelope = sim.Envelope
	// EnvelopeObserver accumulates an Envelope over one channel.
	EnvelopeObserver = sim.EnvelopeObserver
	// TimeInStateObserver accumulates a dwell-time histogram of one
	// channel (the trace-free Fig. 13 analysis).
	TimeInStateObserver = sim.TimeInStateObserver
)

// Observable channels.
const (
	ChanVC         = sim.ChanVC
	ChanPower      = sim.ChanPower
	ChanFreqGHz    = sim.ChanFreqGHz
	ChanTotalCores = sim.ChanTotalCores
	ChanAvailPower = sim.ChanAvailPower
)

// Storage types: pluggable supply-node buffers for the live ODE.
type (
	// Storage models the supply-node energy buffer (terminal voltage,
	// state derivative, energy accounting).
	Storage = sim.Storage
	// IdealCapacitor is the paper's lossless buffer capacitor.
	IdealCapacitor = sim.IdealCap
	// SupercapBank is a supercapacitor with ESR and leakage simulated in
	// the loop.
	SupercapBank = sim.Supercap
	// HybridBuffer is a small node capacitor backed by a large reservoir
	// behind a diode.
	HybridBuffer = sim.HybridCap
	// SupercapParams are the bank parameters (capacitance, ESR, leakage,
	// rating) shared with the offline sizing maths.
	SupercapParams = buffer.Supercap
)

// NewSupercapBank adapts a parameterised supercapacitor bank for the
// live simulation loop.
func NewSupercapBank(p SupercapParams) SupercapBank { return sim.NewSupercap(p) }

// Scenario and campaign types: the declarative run-assembly layer.
type (
	// Scenario declares one simulation run end to end (source, storage,
	// platform, control, workload, duration).
	Scenario = scenario.Spec
	// ScenarioControl selects a run's power-management scheme.
	ScenarioControl = scenario.Control
	// Campaign fans Monte-Carlo variations of a scenario across the
	// deterministic batch engine (the single-cell special case of a
	// Study).
	Campaign = study.Campaign
	// CampaignOutcome is a completed campaign: per-run results plus the
	// deterministic aggregate summary.
	CampaignOutcome = study.Outcome
	// CampaignSummary is the order-independent campaign aggregate.
	CampaignSummary = study.Summary
	// CampaignVariant perturbs the spec for one campaign run.
	CampaignVariant = study.Variant
	// CampaignGroup labels runs for per-variant grouped aggregation.
	CampaignGroup = study.GroupFunc
	// CampaignGroupSummary is one group's aggregate.
	CampaignGroupSummary = study.GroupSummary
)

// Study types: the declarative cross-scenario experiment surface. A
// Study crosses a base Scenario over typed axes (storage, weather,
// controller parameters, workload, arbitrary setters) into a
// deterministic matrix of labelled cells, each a seed-range of
// Monte-Carlo repetitions — with first-class sharding (RunShard),
// serialisable checkpoints and bit-identical aggregation at any worker
// or shard count.
type (
	// Study is a declarative cross-scenario experiment matrix.
	Study = study.Study
	// StudyAxis is one dimension of a study matrix.
	StudyAxis = study.Axis
	// StudyLevel is one labelled value of an axis.
	StudyLevel = study.Level
	// StudySeedMode selects how per-run seeds derive from the study seed.
	StudySeedMode = study.SeedMode
	// StudyOutcome is a completed study matrix: per-cell aggregates,
	// per-axis marginals and the overall summary, all with quantile
	// bands.
	StudyOutcome = study.StudyOutcome
	// StudyCell identifies one matrix point.
	StudyCell = study.Cell
	// StudyCellOutcome is one cell's aggregate.
	StudyCellOutcome = study.CellOutcome
	// StudyMarginal is one axis level's aggregate across all other axes.
	StudyMarginal = study.Marginal
	// StudyCheckpoint is the serialisable state of a sharded, resumed or
	// interrupted study.
	StudyCheckpoint = study.Checkpoint
	// StudyTaskRange is a half-open span of ledger task indices.
	StudyTaskRange = study.TaskRange
	// StudyRunMetrics are the scalar outcomes of one study run.
	StudyRunMetrics = study.RunMetrics
	// StudyQuantileBand is a five-point dwell-time quantile summary.
	StudyQuantileBand = study.QuantileBand
)

// Seed-derivation modes for studies.
const (
	// SeedPerTask gives every cell × repetition its own decorrelated
	// seed (independent realisations; the default).
	SeedPerTask = study.SeedPerTask
	// SeedPerRep reuses one seed per repetition across all cells
	// (common random numbers: paired cross-cell comparisons).
	SeedPerRep = study.SeedPerRep
	// SeedShared passes the study seed verbatim to every run (the
	// parameter-sweep convention).
	SeedShared = study.SeedShared
)

// NewStudyAxis builds a study axis from labelled levels.
func NewStudyAxis(name string, levels ...StudyLevel) StudyAxis {
	return study.NewAxis(name, levels...)
}

// StudyStorage builds an axis level selecting a storage model.
func StudyStorage(label string, st Storage) StudyLevel { return study.Storage(label, st) }

// StudyProfile builds an axis level selecting an irradiance profile.
func StudyProfile(label string, p scenario.ProfileFunc) StudyLevel {
	return study.Profile(label, p)
}

// StudyIrradiance builds an axis level from an already-realised
// profile whose irradiance does not depend on the seed.
func StudyIrradiance(label string, p IrradianceProfile) StudyLevel {
	return study.FixedProfile(label, p)
}

// StudyParams builds an axis level running the power-neutral controller
// with the given parameters.
func StudyParams(label string, p ControllerParams) StudyLevel { return study.Params(label, p) }

// StudyControl builds an axis level selecting an arbitrary control
// scheme.
func StudyControl(label string, c ScenarioControl) StudyLevel { return study.Control(label, c) }

// StudyGovernor builds an axis level running the named Linux cpufreq
// baseline.
func StudyGovernor(name string) StudyLevel { return study.Governor(name) }

// StudyPowerNeutral builds the "power-neutral" anchor level of a
// control axis: the paper's controller with its published defaults.
func StudyPowerNeutral() StudyLevel { return study.PowerNeutral() }

// StudyUtilisation builds an axis level setting the offered workload
// load in [0, 1].
func StudyUtilisation(u float64) StudyLevel { return study.Utilisation(u) }

// StudySetter builds an axis level from an arbitrary scenario mutation.
func StudySetter(label string, apply func(s *Scenario)) StudyLevel {
	return study.Setter(label, apply)
}

// MergeStudyCheckpoints unions shard checkpoints into one; feed the
// result to Study.Outcome once complete.
func MergeStudyCheckpoints(cps ...*StudyCheckpoint) (*StudyCheckpoint, error) {
	return study.MergeCheckpoints(cps...)
}

// ReadStudyCheckpoint decodes and validates a checkpoint written by
// StudyCheckpoint.WriteBinary, the versioned binary record format.
// StudyCheckpoint.WriteJSON is a human-readable rendering only; a JSON
// checkpoint is refused with a diagnostic naming its format version.
func ReadStudyCheckpoint(r io.Reader) (*StudyCheckpoint, error) {
	return study.ReadCheckpoint(r)
}

// RegisterScenario adds a named scenario to the shared registry.
func RegisterScenario(s Scenario) error { return scenario.Register(s) }

// LookupScenario returns a registered scenario by name; mutating the
// returned copy never affects the registry.
func LookupScenario(name string) (Scenario, bool) { return scenario.Lookup(name) }

// ScenarioNames lists the registered scenario names in sorted order.
func ScenarioNames() []string { return scenario.Names() }

// Scenarios returns every registered scenario sorted by name.
func Scenarios() []Scenario { return scenario.List() }

// RunScenario assembles and executes a registered scenario with the
// given seed.
func RunScenario(name string, seed int64) (*SimResult, error) {
	s, ok := scenario.Lookup(name)
	if !ok {
		return nil, &UnknownScenarioError{Name: name}
	}
	return s.Run(seed)
}

// UnknownScenarioError reports a scenario name missing from the registry.
type UnknownScenarioError struct{ Name string }

func (e *UnknownScenarioError) Error() string {
	return "pnps: unknown scenario \"" + e.Name + "\""
}

// FixedIrradiance adapts an already-built profile for scenarios whose
// irradiance does not vary with the seed.
func FixedIrradiance(p IrradianceProfile) scenario.ProfileFunc {
	return scenario.FixedProfile(p)
}

// ControlledBy returns a power-neutral scenario control with explicit
// parameters; the Scenario zero value already selects the defaults.
func ControlledBy(p ControllerParams) ScenarioControl { return scenario.Controlled(p) }

// Uncontrolled returns a static (no runtime control) scenario control.
func Uncontrolled() ScenarioControl { return scenario.Uncontrolled() }

// GovernedBy returns a Linux-governor scenario control by cpufreq name.
func GovernedBy(name string) ScenarioControl { return scenario.Governed(name) }

// MinScenarioCapacitance binary-searches the smallest buffer (in farads,
// within [lo, hi] to relTol) of the given storage family that keeps the
// scenario alive.
func MinScenarioCapacitance(s Scenario, seed int64, mk func(farads float64) Storage, lo, hi, relTol float64) (float64, error) {
	return scenario.MinCapacitance(s, seed, mk, lo, hi, relTol)
}

// DefaultControllerParams returns the paper's simulation-optimised
// parameters (Section III): Vwidth=144 mV, Vq=47.9 mV, α=0.120 V/s,
// β=0.479 V/s.
func DefaultControllerParams() ControllerParams { return core.DefaultParams() }

// NewController builds a power-neutral controller with thresholds
// calibrated around the initial supply voltage (paper Eq. 1).
func NewController(p ControllerParams, initialVC float64, boot OPP, t0 float64) (*Controller, error) {
	return core.New(p, initialVC, boot, t0)
}

// NewPlatform returns the calibrated Exynos5422 platform model.
func NewPlatform() *Platform { return soc.NewDefaultPlatform() }

// NewPVArray returns the paper's 1340 cm² monocrystalline array model
// (MPP ≈ 5.5 W at ≈ 5.3 V under full sun).
func NewPVArray() *PVArray { return pv.SouthamptonArray() }

// MinOPP returns the platform's lowest operating point (1×A7 @ 200 MHz).
func MinOPP() OPP { return soc.MinOPP() }

// MaxOPP returns the platform's highest operating point (4×A7+4×A15 @
// 1.4 GHz).
func MaxOPP() OPP { return soc.MaxOPP() }

// Simulate executes a co-simulation run.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// LinuxGovernor returns a baseline governor by cpufreq name: performance,
// powersave, ondemand, conservative or interactive.
func LinuxGovernor(name string) (Governor, error) { return governor.ByName(name) }

// ConstantIrradiance returns a fixed-irradiance profile (W/m²); 1000 is
// full sun.
func ConstantIrradiance(wm2 float64) IrradianceProfile { return pv.Constant(wm2) }

// SolarDayProfile returns a 24 h clear-sky diurnal envelope (6:00 sunrise,
// 20:00 sunset, 1000 W/m² peak).
func SolarDayProfile() IrradianceProfile { return pv.StandardDay() }

// WithPartialClouds overlays deterministic (seeded) cloud shadowing on a
// base profile over the given span in seconds.
func WithPartialClouds(base IrradianceProfile, span float64, seed int64) IrradianceProfile {
	return pv.NewClouds(base, pv.PartialSun(span), seed)
}

// ShadowEvent returns full sun interrupted by one smooth shadow of the
// given depth (0..1) between start and start+duration seconds.
func ShadowEvent(depth, start, duration float64) IrradianceProfile {
	return pv.Shadow{Base: pv.StandardIrradiance, Depth: depth, Start: start,
		Duration: duration, Edge: 0.4}
}

// Experiment and batch-execution types.
type (
	// ExperimentReport is the output of one paper table/figure
	// regeneration.
	ExperimentReport = experiments.Report
	// RunAllOptions configures a parallel run of registered experiments.
	RunAllOptions = experiments.RunAllOptions
	// SweepOptions configures the Section III parameter grid search.
	SweepOptions = experiments.SweepOptions
	// SweepPoint is one scored parameter combination of the grid search.
	SweepPoint = experiments.SweepPoint
	// BatchOptions tunes the worker-pool batch engine (worker count,
	// progress callback).
	BatchOptions = batch.Options
)

// RunExperiment regenerates a paper table/figure by id (e.g. "fig12",
// "table2"); ExperimentIDs lists the available ids.
func RunExperiment(id string, seed int64) (*experiments.Report, error) {
	return experiments.Run(id, seed)
}

// RunAllExperiments executes independent experiments concurrently on a
// worker pool, returning reports in id order; see
// experiments.RunAllOptions for worker count, seed and progress control.
func RunAllExperiments(ctx context.Context, opts RunAllOptions) ([]*ExperimentReport, error) {
	return experiments.RunAll(ctx, opts)
}

// RunParamSweep scores the (Vwidth, Vq, α, β) grid concurrently and
// returns all points sorted by supply stability (survivors first). The
// result is bit-identical for any SweepOptions.Workers value.
func RunParamSweep(ctx context.Context, opts SweepOptions) ([]SweepPoint, error) {
	return experiments.RunSweepContext(ctx, opts)
}

// BatchMap runs fn over items on a worker pool with deterministic,
// input-ordered results — the execution engine underneath the sweep and
// RunAllExperiments, exposed for custom simulation campaigns.
func BatchMap[In, Out any](ctx context.Context, items []In, fn func(ctx context.Context, item In) (Out, error), opts BatchOptions) ([]Out, error) {
	return batch.Map(ctx, items, fn, opts)
}

// BatchSeed derives a decorrelated, reproducible per-job seed from a
// base seed and job index (for Monte-Carlo style batches).
func BatchSeed(base int64, index int) int64 { return batch.Seed(base, index) }

// ExperimentIDs lists the registered experiment ids.
func ExperimentIDs() []string { return experiments.IDs() }
