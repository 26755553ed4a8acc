// Package scenario is the declarative run-assembly layer between the
// simulation engine and its consumers (experiments, CLIs, examples,
// campaigns). A Spec names every element of one co-simulation —
// harvesting source, storage node, platform, control scheme, workload
// and duration — as data; Assemble turns it into a runnable sim.Config
// with a fresh platform and controller, so a single Spec value can fan
// out across worker pools without shared mutable state.
//
// Specs are registered under stable names (see Register and the
// built-ins in builtin.go) and varied programmatically by Monte-Carlo
// studies (see internal/study): every stochastic element of a run derives
// from the explicit seed passed to Assemble/Run, never from global
// state, so campaigns stay bit-reproducible at any worker count.
//
// Assemble is two steps. Realise draws the seeded part of a run, its
// irradiance profile (or bench source), and Build puts the array,
// storage, platform and controller around it. The seed enters nowhere
// else, so two realisations of one spec with equal identities
// (Realisation.AppendIdentity) build runs that are the same bit for
// bit. Studies use this to simulate each distinct realisation of a
// cell once: a 2 s stress-clouds run is cloud-free for most seeds.
package scenario

import (
	"errors"
	"fmt"
	"math"

	"pnps/internal/core"
	"pnps/internal/governor"
	"pnps/internal/monitor"
	"pnps/internal/pv"
	"pnps/internal/sim"
	"pnps/internal/soc"
)

// ProfileFunc builds the irradiance profile for one run. Stochastic
// profiles must draw all randomness from seed; span is the scenario
// duration (profiles that pre-generate events should cover it).
type ProfileFunc func(seed int64, span float64) pv.Profile

// SourceFunc builds a non-photovoltaic supply (e.g. a bench PSU) for
// one run.
type SourceFunc func(seed int64, span float64) (sim.Source, error)

// FixedProfile adapts an already-built profile into a ProfileFunc for
// specs whose irradiance does not depend on the seed.
func FixedProfile(p pv.Profile) ProfileFunc {
	return func(int64, float64) pv.Profile { return p }
}

// ControlKind selects the power-management scheme of a run.
type ControlKind int

const (
	// PowerNeutral runs the paper's threshold-interrupt controller.
	PowerNeutral ControlKind = iota
	// Static leaves the platform at its boot OPP (the paper's
	// "without control" baselines).
	Static
	// LinuxGovernor runs a named cpufreq baseline governor.
	LinuxGovernor
)

// Control declares the control scheme. The zero value is the paper's
// power-neutral controller with its published default parameters.
type Control struct {
	Kind ControlKind
	// Params tunes the power-neutral controller; the zero value means
	// core.DefaultParams().
	Params core.Params
	// Governor names the cpufreq baseline for LinuxGovernor runs.
	Governor string
}

// Controlled returns a power-neutral Control with explicit parameters.
func Controlled(p core.Params) Control { return Control{Kind: PowerNeutral, Params: p} }

// Uncontrolled returns a static (no runtime control) Control.
func Uncontrolled() Control { return Control{Kind: Static} }

// Governed returns a Linux-governor Control by cpufreq name.
func Governed(name string) Control { return Control{Kind: LinuxGovernor, Governor: name} }

// RestartPolicy enables brownout restarts (see sim.Config).
type RestartPolicy struct {
	// RestartVolts is the recovery threshold (0 → engine default 4.6 V).
	RestartVolts float64
	// RebootSeconds is the boot time (0 → engine default 8 s).
	RebootSeconds float64
	// Cooldown is the minimum off-time before a restart attempt.
	Cooldown float64
}

// Spec declares one simulation run end to end. The zero values of most
// fields select the paper's canonical choices, so a minimal Spec —
// a Profile and a Duration — reproduces the deployed system: the
// Southampton PV array feeding the 47 mF capacitor and an Exynos5422
// board under power-neutral control at full workload.
type Spec struct {
	// Name identifies the scenario in the registry and CLIs.
	Name string
	// Description is a one-line summary for listings.
	Description string

	// Array is the PV model for Profile-driven runs; nil selects the
	// paper's pv.SouthamptonArray().
	Array *pv.Array
	// Profile builds the irradiance profile (PV runs). Exactly one of
	// Profile and Source must be set.
	Profile ProfileFunc
	// Source builds a non-PV supply (bench runs).
	Source SourceFunc

	// Storage is the supply-node buffer; nil selects the paper's 47 mF
	// ideal capacitor.
	Storage sim.Storage

	// Boot is the platform's boot OPP. The zero value selects the
	// scheme's canonical boot point: soc.MinOPP() for power-neutral and
	// static runs, everything-on at the lowest frequency for governors.
	Boot soc.OPP
	// Utilisation is the offered workload load in [0,1]; 0 means fully
	// loaded (the paper's always-busy path tracer).
	Utilisation float64

	// Control selects the power-management scheme; the zero value is
	// the power-neutral controller with default parameters.
	Control Control
	// Monitor configures the threshold hardware (zero → defaults).
	Monitor monitor.Config

	// Duration is the simulated span, seconds.
	Duration float64
	// InitialVC is the supply voltage at t=0; 0 selects the array's MPP
	// voltage at standard irradiance (PV runs; bench runs must set it).
	InitialVC float64
	// TargetVolts overrides the stability target (0 → engine default).
	TargetVolts float64
	// MaxStep bounds the ODE step (0 → engine default).
	MaxStep float64
	// Restart, when non-nil, enables brownout restarts.
	Restart *RestartPolicy
	// SkipSeries disables time-series capture.
	SkipSeries bool
}

// validate checks the declarative fields that Assemble relies on.
func (s Spec) validate() error {
	if (s.Profile == nil) == (s.Source == nil) {
		return errors.New("scenario: set exactly one of Profile and Source")
	}
	// The comparisons are written so that NaN fails them.
	if !(s.Duration > 0) || math.IsInf(s.Duration, 0) {
		return fmt.Errorf("scenario %q: duration must be positive and finite, got %g", s.Name, s.Duration)
	}
	if !(s.InitialVC >= 0) || math.IsInf(s.InitialVC, 0) {
		return fmt.Errorf("scenario %q: InitialVC must be non-negative and finite, got %g", s.Name, s.InitialVC)
	}
	if s.Source != nil && s.InitialVC == 0 {
		return fmt.Errorf("scenario %q: bench runs must set InitialVC", s.Name)
	}
	if !(s.Utilisation >= 0 && s.Utilisation <= 1) {
		return fmt.Errorf("scenario %q: utilisation %g outside [0,1]", s.Name, s.Utilisation)
	}
	if s.Control.Kind == LinuxGovernor && s.Control.Governor == "" {
		return fmt.Errorf("scenario %q: governor control needs a governor name", s.Name)
	}
	return nil
}

// params returns the effective controller parameters.
func (s Spec) params() core.Params {
	if s.Control.Params == (core.Params{}) {
		return core.DefaultParams()
	}
	return s.Control.Params
}

// boot returns the effective boot OPP.
func (s Spec) boot() soc.OPP {
	if s.Boot != (soc.OPP{}) {
		return s.Boot
	}
	if s.Control.Kind == LinuxGovernor {
		// Linux boots with every core online at the lowest frequency.
		return soc.OPP{FreqIdx: 0, Config: soc.CoreConfig{Little: 4, Big: 4}}
	}
	return soc.MinOPP()
}

// Realisation is the seeded part of one run: the irradiance profile a
// PV spec draws from its seed, or the supply a bench spec builds from
// it. The seed reaches a run through nothing else, so two realisations
// of one spec with equal identities (AppendIdentity) build the same
// run, bit for bit.
type Realisation struct {
	profile pv.Profile
	source  sim.Source
}

// AppendIdentity appends the realisation's exact identity to dst and
// reports whether it has one: a realised profile's pv.AppendIdentity.
// A bench source has no identity.
func (r Realisation) AppendIdentity(dst []byte) ([]byte, bool) {
	if r.profile == nil {
		return dst, false
	}
	return pv.AppendIdentity(dst, r.profile)
}

// SharedUntil reports how long the runs of two realisations of one
// spec compute the same thing: pv.SharedUntil of their profiles, the
// time up to which they agree exactly (+Inf for equal identities, 0
// when nothing is proven). A bench source shares nothing.
func (r Realisation) SharedUntil(o Realisation) float64 {
	if r.profile == nil || o.profile == nil {
		return 0
	}
	return pv.SharedUntil(r.profile, o.profile)
}

// ClearUntil reports how long the realisation agrees exactly with its
// own cloud-free sky (pv.ClearUntil), 0 when that is unknown. Two
// realisations of one spec agree at least up to the earlier of their
// ClearUntil times, so the one with the latest ClearUntil agrees with
// every other one at least up to that one's own.
func (r Realisation) ClearUntil() float64 {
	return pv.ClearUntil(r.profile)
}

// Realise validates the spec and draws its seeded part, the first half
// of Assemble.
func (s Spec) Realise(seed int64) (Realisation, error) {
	if err := s.validate(); err != nil {
		return Realisation{}, err
	}
	if s.Profile != nil {
		return Realisation{profile: s.Profile(seed, s.Duration)}, nil
	}
	src, err := s.Source(seed, s.Duration)
	if err != nil {
		return Realisation{}, err
	}
	return Realisation{source: src}, nil
}

// Build turns a realisation of the spec, which must come from
// s.Realise, into a runnable sim.Config: the array, storage, a fresh
// platform and controller around the realised profile or source. It is
// the second half of Assemble, and each call returns an independent
// configuration.
func (s Spec) Build(r Realisation) (sim.Config, error) {
	arr := s.Array
	if arr == nil && s.Profile != nil {
		arr = pv.SouthamptonArray()
	}
	initialVC := s.InitialVC
	if initialVC == 0 {
		mpp, err := arr.StandardMPP()
		if err != nil {
			return sim.Config{}, err
		}
		initialVC = mpp.V
	}

	cfg := sim.Config{
		InitialVC:   initialVC,
		Duration:    s.Duration,
		TargetVolts: s.TargetVolts,
		MaxStep:     s.MaxStep,
		SkipSeries:  s.SkipSeries,
	}
	if s.Profile != nil {
		cfg.Array = arr
		cfg.Profile = r.profile
	} else {
		cfg.Source = r.source
	}
	if s.Storage != nil {
		cfg.Storage = s.Storage
	} else {
		cfg.Capacitance = 47e-3
	}

	boot := s.boot()
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, boot)
	if s.Utilisation > 0 {
		plat.SetUtilisation(s.Utilisation)
	}
	cfg.Platform = plat

	switch s.Control.Kind {
	case PowerNeutral:
		ctrl, err := core.New(s.params(), initialVC, boot, 0)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Controller = ctrl
		cfg.MonitorConfig = s.Monitor
	case LinuxGovernor:
		gov, err := governor.ByName(s.Control.Governor)
		if err != nil {
			return sim.Config{}, err
		}
		cfg.Governor = gov
	case Static:
		// No runtime control.
	default:
		return sim.Config{}, fmt.Errorf("scenario %q: unknown control kind %d", s.Name, s.Control.Kind)
	}

	if s.Restart != nil {
		cfg.BrownoutRestart = true
		cfg.RestartVolts = s.Restart.RestartVolts
		cfg.RebootSeconds = s.Restart.RebootSeconds
		cfg.RestartCooldown = s.Restart.Cooldown
	}
	return cfg, nil
}

// Assemble builds a runnable sim.Config from the spec: the profile
// realised from seed (Realise), then a fresh platform and controller
// around it (Build). Each call returns an independent configuration,
// so assembled runs can execute concurrently.
func (s Spec) Assemble(seed int64) (sim.Config, error) {
	r, err := s.Realise(seed)
	if err != nil {
		return sim.Config{}, err
	}
	return s.Build(r)
}

// Run assembles the spec with the given seed and executes it.
func (s Spec) Run(seed int64) (*sim.Result, error) {
	cfg, err := s.Assemble(seed)
	if err != nil {
		return nil, err
	}
	return sim.Run(cfg)
}
