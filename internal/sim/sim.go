// Package sim is the co-simulation engine that closes the loop of the
// paper's Fig. 8: a PV array charges a small buffer capacitor whose
// voltage node also supplies the MP-SoC board; the supply node is
// integrated as an ODE (the same topology the authors modelled in
// Simulink) while the platform, the threshold-monitor hardware and the
// control software evolve as discrete events.
//
// Continuous part:
//
//	C · dVc/dt = Ipv(Vc, G(t)) − Iboard(Vc) − Imonitor(Vc)
//
// Discrete part: threshold-crossing interrupts (power-neutral controller),
// periodic sampling ticks (Linux governors), OPP-transition completions,
// brownout and optional restart.
package sim

import (
	"errors"
	"fmt"
	"math"

	"pnps/internal/core"
	"pnps/internal/governor"
	"pnps/internal/monitor"
	"pnps/internal/ode"
	"pnps/internal/pv"
	"pnps/internal/soc"
	"pnps/internal/trace"
)

// Config assembles one simulation run. Exactly one of Controller or
// Governor must be set; a nil pair simulates a static (uncontrolled)
// platform, which is how the paper's "without control" baselines run.
type Config struct {
	// Source supplies the node current. If nil, a PVSource is assembled
	// from Array and Profile (the common case).
	Source Source
	// Array is the PV source model (used when Source is nil).
	Array *pv.Array
	// Profile drives irradiance over time (used when Source is nil).
	Profile pv.Profile
	// Storage is the supply-node energy buffer. If nil, an IdealCap of
	// Capacitance farads is used (the historical behaviour). Set at most
	// one of Storage and Capacitance.
	Storage Storage
	// Capacitance is the buffer capacitor in farads (paper: 47 mF);
	// shorthand for Storage = IdealCap{Farads: Capacitance}.
	Capacitance float64
	// InitialVC is the buffer's terminal voltage at t=0, volts (the
	// storage is initialised at rest from it).
	InitialVC float64
	// Platform is the simulated board. Its boot OPP is taken as already
	// set by the caller via Reset.
	Platform *soc.Platform

	// Controller, when non-nil, runs the paper's power-neutral scheme.
	Controller *core.Controller
	// MonitorConfig configures the threshold interrupt hardware used by
	// the controller (ignored in governor/static runs). Zero value means
	// monitor.DefaultConfig().
	MonitorConfig monitor.Config
	// Governor, when non-nil, runs a Linux cpufreq baseline.
	Governor governor.Governor

	// Duration is the simulated time span, seconds.
	Duration float64
	// MaxStep bounds the ODE step so irradiance transients are resolved
	// (default 0.25 s).
	MaxStep float64
	// BrownoutRestart re-boots the platform when Vc recovers above
	// RestartVolts after a brownout. Default false: the board stays dead,
	// matching the paper's Table II lifetime accounting.
	BrownoutRestart bool
	// RestartVolts is the recovery threshold (default 4.6 V).
	RestartVolts float64
	// RebootSeconds is how long a restart takes before work resumes
	// (default 8 s, an ODROID Linux boot).
	RebootSeconds float64
	// RestartCooldown is the minimum off-time after a brownout before a
	// restart is attempted — a supervisor back-off that prevents dawn/dusk
	// boot loops (default 0: restart as soon as the supply recovers).
	RestartCooldown float64

	// TargetVolts is the nominal supply target used for stability metrics
	// (default: the array's MPP voltage at standard irradiance).
	TargetVolts float64
	// AvailSamplePeriod is the sampling period of the available-power
	// estimate trace (default 5 s; MPP solves are relatively costly).
	AvailSamplePeriod float64
	// RecordSeries enables time-series capture (default true via
	// NewConfig-style literal use; set SkipSeries to disable).
	SkipSeries bool

	// Observers receive the engine's sample stream (one Sample per
	// accepted integration step and discrete event). Online observers
	// summarise a run without retaining traces; series capture itself
	// runs as the first observer when SkipSeries is false.
	Observers []Observer
	// StabilityBands lists fractional half-widths (e.g. 0.05 for ±5%)
	// for online within-band supply-stability accumulators, computed
	// against TargetVolts without series capture. Result.StabilityWithin
	// answers exactly for these bands (and any band, when series capture
	// is on). Campaigns use this to report the paper's headline
	// stability metric trace-free.
	StabilityBands []float64
}

// Result carries everything the experiments need from one run.
type Result struct {
	// VC is the supply/capacitor voltage trace.
	VC *trace.Series
	// PowerConsumed is board+monitor power, watts.
	PowerConsumed *trace.Series
	// PowerAvailable is the estimated maximum extractable PV power.
	PowerAvailable *trace.Series
	// FreqGHz is the committed DVFS frequency trace.
	FreqGHz *trace.Series
	// LittleCores, BigCores and TotalCores are committed online-core
	// traces.
	LittleCores, BigCores, TotalCores *trace.Series

	// Instructions and Frames are total completed work.
	Instructions float64
	Frames       float64
	// LifetimeSeconds is accumulated alive time.
	LifetimeSeconds float64
	// FirstBrownout is the time of the first brownout; ok=false if none.
	FirstBrownout float64
	BrownedOut    bool
	Brownouts     int
	Restarts      int
	// ControllerStats is populated for power-neutral runs.
	ControllerStats core.Stats
	// Interrupts is the number of serviced threshold interrupts.
	Interrupts int
	// CPUOverhead is the fraction of run time spent in the monitor ISR
	// and SPI reprogramming (paper Fig. 15).
	CPUOverhead float64
	// MonitorPowerWatts is the static draw of the monitoring hardware.
	MonitorPowerWatts float64
	// GovernorTicks counts baseline-governor sampling ticks.
	GovernorTicks int
	// FinalVC is the supply voltage at the end of the run.
	FinalVC float64
	// StorageEnergyStartJ and StorageEnergyEndJ bracket the energy held
	// in the buffer (joules), so campaigns can account for energy parked
	// in — or drained from — the storage itself.
	StorageEnergyStartJ, StorageEnergyEndJ float64
	// TargetVolts echoes the stability target used.
	TargetVolts float64
	// VCEnvelope is the online min/max/time-mean of the supply voltage,
	// accumulated on every run — available even when series capture is
	// off, bit-identical to the VC series analyses when it is on.
	VCEnvelope Envelope
	// Solver counts the numerical work the run took.
	Solver SolverCounters
	// SharedPrefixSeconds is the simulated time this run took from a
	// lead run's Snapshot instead of simulating it (see Resume), 0 for
	// a run from scratch. It says how the run was executed, not what
	// it computed: every other field is bit-identical either way.
	SharedPrefixSeconds float64

	// stability holds the online within-band accumulators configured via
	// Config.StabilityBands.
	stability []stabAccum
}

// SolverCounters counts the numerical work of one run, layer by layer.
type SolverCounters struct {
	// Segments is the number of integration segments (one
	// ode.Integrator.Integrate call each).
	Segments int
	// Steps and Rejected count accepted and rejected RK23 steps.
	Steps, Rejected int
	// RHSEvals counts evaluations of the supply-node right-hand side.
	RHSEvals int
	// NewtonIters counts the PV current solve's warm-started Newton
	// iterations; ExactSolves counts solves that fell back to the exact
	// bracketed method. Both stay zero for a non-PV source.
	NewtonIters, ExactSolves int
}

// Add accumulates another run's counters into c.
func (c *SolverCounters) Add(o SolverCounters) {
	c.Segments += o.Segments
	c.Steps += o.Steps
	c.Rejected += o.Rejected
	c.RHSEvals += o.RHSEvals
	c.NewtonIters += o.NewtonIters
	c.ExactSolves += o.ExactSolves
}

// StabilityWithin returns the fraction of the run the supply spent within
// ±pct of the target voltage (the paper's headline 93.3% at 5%). With
// series capture on it is computed from the VC trace for any pct;
// trace-free runs answer from the online accumulators configured via
// Config.StabilityBands. When neither is available — series capture was
// skipped and no matching stability band ran — it returns NaN, so a
// missing measurement can never be mistaken for 0% stability.
func (r *Result) StabilityWithin(pct float64) float64 {
	if r.VC != nil && r.VC.Len() > 0 {
		f, err := r.VC.FractionWithinPercent(r.TargetVolts, pct)
		if err != nil {
			return math.NaN()
		}
		return f
	}
	for i := range r.stability {
		if r.stability[i].pct == pct {
			return r.stability[i].fraction()
		}
	}
	return math.NaN()
}

// StabilityBands returns the fractional band half-widths for which this
// result can answer StabilityWithin without a VC trace.
func (r *Result) StabilityBands() []float64 {
	bands := make([]float64, len(r.stability))
	for i := range r.stability {
		bands[i] = r.stability[i].pct
	}
	return bands
}

// runState is the engine's mutable value state: plain values only, so
// one assignment copies it.
type runState struct {
	vc        float64
	now       float64
	alive     bool
	aliveFor  float64
	deadSince float64
	// instrBase and framesBase carry work completed before a brownout
	// restart (platform.Reset zeroes the platform's own counters).
	instrBase  float64
	framesBase float64
	// nextTick is the governor's next sampling time; rebootAt is the
	// pending restart time, −1 when none is armed.
	nextTick float64
	rebootAt float64

	// ybuf backs the storage state vector.
	// State 0 is the sensed supply voltage (events, traces, brownout);
	// further states are storage-internal (e.g. a hybrid reservoir).
	ybuf  [MaxStorageStates]float64
	lastH float64 // step-size carry across segments
	// drawW is the board's power draw for the segment being integrated,
	// read once per segment just before Integrate. It is constant within
	// one: the platform only mutates between integrations (Advance,
	// RequestOPP, Kill and Reset all run in the discrete-event code).
	drawW float64
	// readUntil is the latest time at which the run has read the
	// irradiance, −Inf before the first read: a run whose profile agrees
	// with this one's up to readUntil has reached this very state.
	readUntil float64

	// The engine-owned reusable sample, the always-on supply-voltage
	// envelope and the available-power sampling clock.
	sample       Sample
	env          Envelope
	availStarted bool
	lastAvailT   float64
}

// runParts is everything that changes as a run advances: the engine's
// own values and the objects holding the rest of its state. It is what
// a Snapshot copies (see fork.go).
type runParts struct {
	runState

	fast     *pv.Solver // nil for a non-PV source
	platform *soc.Platform
	ctrl     *core.Controller
	hw       *monitor.Hardware

	// Observer pipeline (see observer.go): the dispatch list (series
	// observer first, then Config.Observers) and the always-on stability
	// accumulators. All fixed at run start so the per-step dispatch is
	// allocation-free.
	observers []Observer
	stab      []stabAccum

	// res is the run's Result, allocated apart from the engine so that a
	// caller holding the Result does not keep the engine alive. Invariant:
	// nothing reachable from res points back into the engine — res holds
	// only values, its own series and the stability accumulators, never
	// the platform, solver, monitor, observers or closures.
	res *Result
}

// engine is the per-run mutable state.
type engine struct {
	cfg   Config    // validated: Source and Storage are set
	pvSrc *PVSource // non-nil when the source is photovoltaic
	gov   governor.Governor

	runParts

	// Per-run integration hot-path state, allocated once: a reusable
	// stepper, the storage state view, the event scratch slice and the
	// hoisted RHS/OnStep/event closures (rebuilding them per segment cost
	// an allocation each across tens of thousands of segments).
	integ ode.Integrator
	// y is the storage state vector, runState.ybuf[:Storage.Dim()].
	y []float64
	// evbuf backs the event scratch slice events: a segment arms at most
	// three events (brownout, Vlow, Vhigh), so the set never reallocates.
	evbuf                              [3]ode.Event
	events                             []ode.Event
	rhsFn                              ode.RHS
	onStepFn                           func(t float64, y []float64)
	evBrownout, evVlow, evVhigh, evRec ode.Event

	// What the observers read, fixed at run start.
	wantAvail  bool
	supplyOnly bool // every observer reads only T/VC/Alive

	// forks is the pending snapshot work of a lead run (RunLead), nil
	// otherwise and once every snapshot is taken.
	forks *forker
}

// Run executes the configured simulation to completion.
func Run(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish(), nil
}

// newEngine builds the per-run engine for an already-validated config:
// storage/solver/observer wiring, monitor hardware, and the hoisted
// integration closures.
func newEngine(cfg Config) (*engine, error) {
	e := &engine{
		cfg: cfg,
		gov: cfg.Governor,
		runParts: runParts{
			runState: runState{
				vc:        cfg.InitialVC,
				alive:     true,
				rebootAt:  -1,
				readUntil: math.Inf(-1),
			},
			platform: cfg.Platform,
			ctrl:     cfg.Controller,
			res:      new(Result),
		},
	}
	e.events = e.evbuf[:0]
	e.y = e.ybuf[:cfg.Storage.Dim()]
	cfg.Storage.Init(cfg.InitialVC, e.y)
	e.res.StorageEnergyStartJ = cfg.Storage.Energy(e.y)
	if p, ok := cfg.Source.(PVSource); ok {
		e.pvSrc = &p
	} else if p, ok := cfg.Source.(*PVSource); ok {
		e.pvSrc = p
	}
	if e.pvSrc != nil {
		// Per-engine accelerated solve layer: warm-started Newton for the
		// node current, memoised Voc/MPP for the available-power trace.
		// Owned by this run, so parallel sweeps stay bit-reproducible.
		e.fast = pv.NewSolver(e.pvSrc.Array)
	}
	e.res.TargetVolts = cfg.TargetVolts
	if len(cfg.StabilityBands) > 0 {
		e.stab = make([]stabAccum, len(cfg.StabilityBands))
		for i, pct := range cfg.StabilityBands {
			e.stab[i] = newStabAccum(cfg.TargetVolts, pct)
		}
	}
	if !cfg.SkipSeries {
		e.res.VC = trace.NewSeries("Vc", "V")
		e.res.PowerConsumed = trace.NewSeries("Pconsumed", "W")
		e.res.PowerAvailable = trace.NewSeries("Pavailable", "W")
		e.res.FreqGHz = trace.NewSeries("frequency", "GHz")
		e.res.LittleCores = trace.NewSeries("littleCores", "cores")
		e.res.BigCores = trace.NewSeries("bigCores", "cores")
		e.res.TotalCores = trace.NewSeries("totalCores", "cores")
		e.observers = append(e.observers, seriesObserver{res: e.res})
	}
	e.observers = append(e.observers, cfg.Observers...)
	e.supplyOnly = true
	for _, o := range e.observers {
		if n, ok := o.(NeedsAvailablePower); ok && n.NeedsAvailablePower() {
			e.wantAvail = true
		}
		if s, ok := o.(SupplyOnly); !ok || !s.SupplyOnly() {
			e.supplyOnly = false
		}
	}

	if e.ctrl != nil {
		mc := cfg.MonitorConfig
		if mc == (monitor.Config{}) {
			mc = monitor.DefaultConfig()
		}
		vh, vl := e.ctrl.Thresholds()
		hw, err := monitor.NewHardware(mc, vh, vl)
		if err != nil {
			return nil, err
		}
		e.hw = hw
		e.res.MonitorPowerWatts = hw.PowerWatts()
	}

	// Hoist the integration closures once per run; the discrete-event loop
	// integrates tens of thousands of short segments and must not rebuild
	// them (or the event set) each time.
	e.rhsFn = e.rhs
	e.onStepFn = func(t float64, y []float64) { e.record(t, y[0]) }
	e.evBrownout = ode.Event{
		Name:      "brownout",
		G:         func(_ float64, y []float64) float64 { return y[0] - soc.MinOperatingVolts },
		Direction: -1,
		Terminal:  true,
	}
	// The threshold closures read the channels live: thresholds are only
	// reprogrammed between segments, so within one integration they are
	// constant.
	if e.hw != nil {
		e.evVlow = ode.Event{
			Name:      "vlow",
			G:         func(_ float64, y []float64) float64 { return y[0] - e.hw.Low.Threshold() },
			Direction: -1,
			Terminal:  true,
		}
		e.evVhigh = ode.Event{
			Name:      "vhigh",
			G:         func(_ float64, y []float64) float64 { return y[0] - e.hw.High.Threshold() },
			Direction: +1,
			Terminal:  true,
		}
	}
	e.evRec = ode.Event{
		Name:      "recover",
		G:         func(_ float64, y []float64) float64 { return y[0] - e.cfg.RestartVolts },
		Direction: +1,
		Terminal:  true,
	}

	return e, nil
}

// finish fills the Result from the engine's terminal state.
func (e *engine) finish() *Result {
	e.res.Instructions = e.instrBase + e.platform.Instructions()
	e.res.Frames = e.framesBase + e.platform.Frames()
	e.res.LifetimeSeconds = e.aliveFor
	e.res.FinalVC = e.vc
	e.res.StorageEnergyEndJ = e.cfg.Storage.Energy(e.y)
	e.res.VCEnvelope = e.env
	e.res.stability = e.stab
	if e.fast != nil {
		e.res.Solver.NewtonIters, e.res.Solver.ExactSolves = e.fast.Work()
	}
	if e.ctrl != nil {
		e.res.ControllerStats = e.ctrl.Stats()
		e.res.Interrupts = e.hw.Interrupts()
		e.res.CPUOverhead = e.hw.CPUOverhead(e.cfg.Duration)
	}
	return e.res
}

// validate checks the config and fills its defaults. Positive-value
// checks are written !(x > 0), which also refuses NaN.
func validate(cfg *Config) error {
	if cfg.Source == nil {
		if cfg.Array == nil || cfg.Profile == nil {
			return errors.New("sim: set Config.Source, or Config.Array and Config.Profile")
		}
		if err := cfg.Array.Validate(); err != nil {
			return err
		}
		cfg.Source = PVSource{Array: cfg.Array, Profile: cfg.Profile}
	}
	if cfg.Platform == nil {
		return errors.New("sim: Config.Platform is required")
	}
	if cfg.Storage == nil {
		if !(cfg.Capacitance > 0) || math.IsInf(cfg.Capacitance, 0) {
			return fmt.Errorf("sim: capacitance must be positive and finite, got %g", cfg.Capacitance)
		}
		cfg.Storage = IdealCap{Farads: cfg.Capacitance}
	} else {
		if cfg.Capacitance != 0 {
			return errors.New("sim: set at most one of Storage and Capacitance")
		}
		if err := cfg.Storage.Validate(); err != nil {
			return err
		}
		if d := cfg.Storage.Dim(); d < 1 || d > MaxStorageStates {
			return fmt.Errorf("sim: storage dimension %d outside 1..%d", d, MaxStorageStates)
		}
	}
	if !(cfg.Duration > 0) || math.IsInf(cfg.Duration, 0) {
		return fmt.Errorf("sim: duration must be positive and finite, got %g", cfg.Duration)
	}
	if !(cfg.InitialVC > 0) || math.IsInf(cfg.InitialVC, 0) {
		return fmt.Errorf("sim: initial Vc must be positive and finite, got %g", cfg.InitialVC)
	}
	if cfg.Controller != nil && cfg.Governor != nil {
		return errors.New("sim: set at most one of Controller and Governor")
	}
	// Zero selects each field's default; anything else must be a
	// non-negative finite number (!(x >= 0) also refuses NaN).
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"MaxStep", cfg.MaxStep},
		{"RestartVolts", cfg.RestartVolts},
		{"RebootSeconds", cfg.RebootSeconds},
		{"RestartCooldown", cfg.RestartCooldown},
		{"AvailSamplePeriod", cfg.AvailSamplePeriod},
		{"TargetVolts", cfg.TargetVolts},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sim: %s must be non-negative and finite, got %g", f.name, f.v)
		}
	}
	if cfg.MaxStep == 0 {
		cfg.MaxStep = 0.25
	}
	if cfg.RestartVolts == 0 {
		cfg.RestartVolts = 4.6
	}
	if cfg.RebootSeconds == 0 {
		cfg.RebootSeconds = 8
	}
	if cfg.AvailSamplePeriod == 0 {
		cfg.AvailSamplePeriod = 5
	}
	for i, o := range cfg.Observers {
		if o == nil {
			return fmt.Errorf("sim: Config.Observers[%d] is nil", i)
		}
	}
	for _, pct := range cfg.StabilityBands {
		// !(pct > 0) also rejects NaN, which pct <= 0 would let through
		// as a dead accumulator no StabilityWithin call could ever match.
		if !(pct > 0) || math.IsInf(pct, 0) {
			return fmt.Errorf("sim: stability band half-width must be positive and finite, got %g", pct)
		}
	}
	if cfg.TargetVolts == 0 {
		if cfg.Array != nil {
			m, err := cfg.Array.StandardMPP()
			if err != nil {
				return err
			}
			cfg.TargetVolts = m.V
		} else {
			cfg.TargetVolts = cfg.InitialVC
		}
	}
	return nil
}

// rhs evaluates the storage-state derivative at (t, y) for the current
// discrete state: a predictor pass computes the net node current at the
// sensed voltage y[0]; if the storage reports a shifted terminal voltage
// (series resistance), one corrector pass re-evaluates harvest and load
// there. Storage without an ESR term (ideal, hybrid) takes the single
// pass and reproduces the historical capacitor maths bit for bit.
func (e *engine) rhs(t float64, y, dydt []float64) {
	e.res.Solver.RHSEvals++
	if t > e.readUntil {
		e.readUntil = t
	}
	v := y[0]
	if v < 0 {
		v = 0
	}
	inet := e.netCurrent(t, v)
	if vt := e.cfg.Storage.Terminal(y, inet); vt != y[0] {
		if vt < 0 {
			vt = 0
		}
		if vt != v {
			inet = e.netCurrent(t, vt)
		}
	}
	e.applyDerivative(y, dydt, inet)
}

// netCurrent returns the net current into the storage branch (harvest
// minus board and monitor draw) with the node at voltage v.
func (e *engine) netCurrent(t, v float64) float64 {
	var isrc float64
	var err error
	if e.fast != nil {
		isrc, err = e.fast.CurrentAt(v, e.pvSrc.Profile.Irradiance(t))
	} else {
		isrc, err = e.cfg.Source.Current(t, v)
	}
	if err != nil {
		// Out-of-range solves should not occur with validated params;
		// treat as zero harvest rather than aborting mid-integration.
		isrc = 0
	}
	return isrc - e.loadCurrent(v)
}

// loadCurrent returns the board + monitor draw with the node at voltage
// v (zero when browned out) — the load half of netCurrent. The board
// term is the segment's drawW through the constant-power regulator.
func (e *engine) loadCurrent(v float64) float64 {
	iload := 0.0
	if e.alive {
		iload = soc.ConstantPowerCurrent(e.drawW, v)
		if e.hw != nil && v > 0 {
			iload += e.hw.PowerWatts() / v
		}
	}
	return iload
}

// applyDerivative finishes one RHS evaluation: the storage model maps
// the net node current to state derivatives, clamped so no state
// voltage can discharge below zero (the array blocks reverse current
// physically; this guards numerical undershoot).
func (e *engine) applyDerivative(y, dydt []float64, inet float64) {
	e.cfg.Storage.Derivative(y, inet, dydt)
	for i := range dydt {
		if y[i] <= 0 && dydt[i] < 0 {
			dydt[i] = 0
		}
	}
}

// record publishes the sample at (t, vc) through the observer pipeline:
// the always-on online accumulators (supply envelope, stability bands)
// run first — they only need (t, vc) and cost a handful of flops — then,
// when any observer is attached, the Sample is assembled once and
// dispatched. The platform bookkeeping (power draw, committed OPP, the
// periodic available-power estimate) is only paid when some observer
// actually reads it: with no observers, or with only SupplyOnly
// observers (the trace-free campaign case — voltage histograms,
// envelopes), it is skipped entirely.
func (e *engine) record(t, vc float64) {
	e.env.Observe(t, vc)
	for i := range e.stab {
		e.stab[i].observe(t, vc)
	}
	if len(e.observers) == 0 {
		return
	}
	s := &e.sample
	s.T, s.VC, s.Alive = t, vc, e.alive
	if !e.supplyOnly {
		pw := 0.0
		if e.alive {
			pw = e.platform.PowerDraw()
			if e.hw != nil {
				pw += e.hw.PowerWatts()
			}
		}
		s.PowerW = pw
		opp := e.platform.CommittedOPP()
		s.FreqGHz = opp.Frequency() / 1e9
		s.LittleCores, s.BigCores = opp.Config.Little, opp.Config.Big
		s.HasAvail, s.AvailW = false, 0
		if e.pvSrc != nil && e.wantAvail {
			if !e.availStarted || t-e.lastAvailT >= e.cfg.AvailSamplePeriod {
				e.sampleAvailable(t)
			}
		}
	}
	for _, o := range e.observers {
		o.Observe(s)
	}
}

// sampleAvailable computes the PV array's instantaneous MPP power — the
// paper's "estimated available harvested power" (Fig. 14) — into the
// pending sample. The refresh clock only advances on a successful solve,
// matching the historical retry-next-step behaviour.
func (e *engine) sampleAvailable(t float64) {
	if t > e.readUntil {
		e.readUntil = t
	}
	g := e.pvSrc.Profile.Irradiance(t)
	p, err := e.fast.AvailablePower(g)
	if err == nil {
		e.sample.HasAvail, e.sample.AvailW = true, p
		e.availStarted, e.lastAvailT = true, t
	}
}

// run is the discrete-event loop. Each pass performs the due governor
// tick and reboot, integrates the supply to the next forced stop or
// terminal event, dispatches that event, and then level-checks the node:
// a brownout missed by an unmonitored interval, or a crossing latched
// while the platform was busy. All of the loop's state lives in the
// engine, so a run resumed from a snapshot taken at the top of a pass
// goes on exactly as the run it was taken from.
func (e *engine) run() error {
	tEnd := e.cfg.Duration
	for {
		if e.forks != nil {
			e.forkPoint()
		}
		if !(e.now < tEnd) {
			break
		}
		// Governor tick due exactly now.
		if e.gov != nil && e.alive && e.now >= e.nextTick {
			e.governorTick()
			e.nextTick = e.now + e.gov.SamplingPeriod()
		}
		// Reboot due now — but only if the supply is still healthy; the
		// harvest may have collapsed again during the cooldown, in which
		// case we disarm and wait for the next recovery crossing.
		if !e.alive && e.rebootAt >= 0 && e.now >= e.rebootAt {
			e.rebootAt = -1
			if e.vc >= e.cfg.RestartVolts {
				e.reboot()
				if e.gov != nil {
					e.nextTick = e.now
					continue
				}
			}
		}

		// Choose the next forced stop.
		segEnd := tEnd
		if e.gov != nil && e.alive && e.nextTick < segEnd {
			segEnd = e.nextTick
		}
		if c, ok := e.platform.NextCompletion(); ok && e.alive && c < segEnd {
			segEnd = c
		}
		if !e.alive && e.rebootAt >= 0 && e.rebootAt < segEnd {
			segEnd = e.rebootAt
		}
		if segEnd <= e.now {
			segEnd = math.Nextafter(e.now, math.Inf(1))
		}

		// Main segments are monitored: threshold/brownout events and
		// per-step observer dispatch.
		res, err := e.integrate(segEnd, ode.Options{Events: e.buildEvents(), OnStep: e.onStepFn})
		if err != nil {
			return fmt.Errorf("sim: integration failed at t=%g: %w", e.now, err)
		}
		if e.alive {
			if err := e.platform.Advance(e.now); err != nil {
				return err
			}
		}
		if res.Stopped {
			// A terminal event fired: find it (the last hit).
			hit := res.Hits[len(res.Hits)-1]
			switch hit.Name {
			case "brownout":
				e.brownout()
			case "recover":
				e.rebootAt = e.now + e.cfg.RebootSeconds
				if earliest := e.deadSince + e.cfg.RestartCooldown; e.rebootAt < earliest {
					e.rebootAt = earliest
				}
			case "vlow":
				err = e.service(core.CrossLow)
			case "vhigh":
				err = e.service(core.CrossHigh)
			default:
				err = fmt.Errorf("sim: unknown terminal event %q", hit.Name)
			}
			if err != nil {
				return err
			}
		}

		// Level-check the node after the segment and after every service:
		// a brownout that slipped through an unmonitored interval (an
		// interrupt-delay integration) is caught here, also when that
		// delay ran past tEnd. Then replay crossings latched while the
		// platform was busy: once the actuation completes, the comparator
		// outputs are level-checked and any asserted threshold is
		// serviced. A service does not always clear the crossing: a
		// threshold the controller slides past the monitor's range stays
		// clamped at VMin/VMax, so a supply resting beyond it asserts
		// again after every interrupt delay. The tEnd bound is what ends
		// the loop.
		for {
			if e.alive && e.vc < soc.MinOperatingVolts-1e-6 {
				e.brownout()
			}
			if e.ctrl == nil || !e.alive || !(e.now < tEnd) {
				break
			}
			if _, busy := e.platform.NextCompletion(); busy {
				break
			}
			if e.vc <= e.hw.Low.Threshold() {
				err = e.service(core.CrossLow)
			} else if e.vc >= e.hw.High.Threshold() {
				err = e.service(core.CrossHigh)
			} else {
				break
			}
			if err != nil {
				return err
			}
		}
	}
	if e.forks != nil {
		e.forks.finish()
	}
	// Final bookkeeping sample.
	e.record(e.now, e.vc)
	return nil
}

// integrate advances the supply from e.now to t1 (or to a terminal event
// in opts) and carries the clock, the sensed voltage, the step size and
// the alive time forward; the caller advances the platform. Integration
// failures are returned unwrapped, with e.now still at the segment start.
func (e *engine) integrate(t1 float64, opts ode.Options) (ode.Result, error) {
	// Sync the sensed voltage into the persistent state buffer; storage-
	// internal states (indices ≥ 1) carry over untouched.
	e.y[0] = e.vc
	e.drawW = e.platform.PowerDraw()
	// Every segment resumes at the step size established by the previous
	// one (zero on the first selects the default heuristic): interrupt-
	// driven runs integrate thousands of short segments, and regrowing
	// from the span/100 default each time costs several extra RHS
	// evaluations per segment.
	opts.InitialStep, opts.MaxStep = e.lastH, e.cfg.MaxStep
	opts.RTol, opts.ATol = 1e-6, 1e-7
	res, err := e.integ.Integrate(e.rhsFn, e.now, t1, e.y, opts)
	e.res.Solver.Segments++
	e.res.Solver.Steps += res.Steps
	e.res.Solver.Rejected += res.Rejected
	if err != nil {
		return res, err
	}
	e.lastH = res.LastStep
	// Account alive time across the integrated span.
	if e.alive {
		e.aliveFor += res.T - e.now
	}
	e.now = res.T
	e.vc = e.y[0]
	return res, nil
}

// buildEvents assembles the ODE event set for the current discrete state
// from the hoisted event closures, reusing the engine's scratch slice.
func (e *engine) buildEvents() []ode.Event {
	evs := e.events[:0]
	if e.alive {
		evs = append(evs, e.evBrownout)
		// Threshold interrupts are only armed while the platform is idle:
		// the real ISR performs the cpufreq/hot-plug syscalls synchronously,
		// so crossings during an actuation are latched, not serviced. The
		// post-actuation level check in run() replays a latched crossing.
		_, busy := e.platform.NextCompletion()
		if e.ctrl != nil && e.hw != nil && !busy {
			evs = append(evs, e.evVlow, e.evVhigh)
		}
	} else if e.cfg.BrownoutRestart {
		evs = append(evs, e.evRec)
	}
	e.events = evs
	return evs
}

// governorTick samples the governor and actuates its decision.
func (e *engine) governorTick() {
	st := governor.State{
		Load:        e.platform.Utilisation(),
		OPP:         e.platform.CommittedOPP(),
		SupplyVolts: e.vc,
	}
	target := e.gov.Decide(e.now, st).Clamp()
	if target != e.platform.CommittedOPP() {
		// Linux governors sequence frequency before cores; they never
		// change cores anyway.
		_, err := e.platform.RequestOPP(target, e.now, soc.FreqFirst)
		_ = err // cannot fail for valid adjacent targets; dead platform is guarded by caller
	}
	e.res.GovernorTicks++
}

// service handles a Vlow/Vhigh crossing. The analogue crossing has
// happened; the ISR runs after the propagation + dispatch delay, so when
// the channel has one the supply is first integrated through it without
// threshold events or per-step samples (the hardware latches the edge).
// The ISR then takes the controller decision, actuates the OPP change and
// reprograms both thresholds.
func (e *engine) service(which core.Crossing) error {
	ch := e.hw.Low
	if which == core.CrossHigh {
		ch = e.hw.High
	}
	if delay := ch.InterruptDelay(); delay > 0 {
		if _, err := e.integrate(e.now+delay, ode.Options{}); err != nil {
			return fmt.Errorf("sim: interrupt-delay integration failed: %w", err)
		}
		if err := e.platform.Advance(e.now); err != nil {
			return err
		}
	}
	e.hw.RecordInterrupt()

	d := e.ctrl.OnCrossing(which, e.now)
	// Actuate the OPP change.
	if d.Target != e.platform.CommittedOPP() {
		if _, err := e.platform.RequestOPP(d.Target, e.now, d.Order); err != nil {
			return err
		}
	}
	// Reprogram both threshold channels with the slid values.
	e.hw.High.Program(d.VHigh)
	e.hw.RecordProgramming()
	e.hw.Low.Program(d.VLow)
	e.hw.RecordProgramming()
	e.record(e.now, e.vc)
	return nil
}

// brownout powers the board down.
func (e *engine) brownout() {
	e.alive = false
	e.deadSince = e.now
	e.platform.Kill()
	e.res.Brownouts++
	if !e.res.BrownedOut {
		e.res.BrownedOut = true
		e.res.FirstBrownout = e.now
	}
	e.record(e.now, e.vc)
}

// reboot restarts the platform at the minimal OPP and re-centres the
// controller thresholds.
func (e *engine) reboot() {
	// Preserve work completed before the restart; Reset zeroes the
	// platform counters.
	e.instrBase += e.platform.Instructions()
	e.framesBase += e.platform.Frames()
	e.platform.Reset(e.now, soc.MinOPP())
	e.alive = true
	e.res.Restarts++
	if e.ctrl != nil {
		e.ctrl.Recalibrate(e.vc)
		e.ctrl.SetOPP(soc.MinOPP())
		vh, vl := e.ctrl.Thresholds()
		e.hw.High.Program(vh)
		e.hw.Low.Program(vl)
	}
	if e.gov != nil {
		e.gov.Reset()
	}
	e.record(e.now, e.vc)
}
