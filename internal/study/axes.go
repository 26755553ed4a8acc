package study

import (
	"fmt"

	"pnps/internal/core"
	"pnps/internal/pv"
	"pnps/internal/scenario"
	"pnps/internal/sim"
)

// Typed level constructors: each returns a labelled Level for the
// common matrix dimensions, so axes read declaratively —
//
//	study.NewAxis("storage",
//		study.Storage("ideal 47mF", sim.IdealCap{Farads: 47e-3}),
//		study.Storage("supercap", sim.NewSupercap(bank)))
//
// Setter covers anything the typed constructors do not.

// Setter builds a level from an arbitrary spec mutation.
func Setter(label string, apply func(s *scenario.Spec)) Level {
	return Level{Label: label, Apply: apply}
}

// Storage builds a level selecting a storage model (storage-family axes).
func Storage(label string, st sim.Storage) Level {
	return Level{Label: label, Apply: func(s *scenario.Spec) { s.Storage = st }}
}

// Profile builds a level selecting an irradiance profile (weather axes).
func Profile(label string, p scenario.ProfileFunc) Level {
	return Level{Label: label, Apply: func(s *scenario.Spec) {
		s.Profile = p
		s.Source = nil
	}}
}

// FixedProfile builds a level from an already-realised profile whose
// irradiance does not depend on the seed.
func FixedProfile(label string, p pv.Profile) Level {
	return Profile(label, scenario.FixedProfile(p))
}

// Params builds a level running the power-neutral controller with the
// given parameters (controller-tuning axes).
func Params(label string, p core.Params) Level {
	return Level{Label: label, Apply: func(s *scenario.Spec) { s.Control = scenario.Controlled(p) }}
}

// Control builds a level selecting an arbitrary control scheme.
func Control(label string, c scenario.Control) Level {
	return Level{Label: label, Apply: func(s *scenario.Spec) { s.Control = c }}
}

// Governor builds a level running the named Linux cpufreq baseline; the
// label is the governor name.
func Governor(name string) Level {
	return Control(name, scenario.Governed(name))
}

// PowerNeutral builds a level running the paper's controller with its
// published default parameters, labelled "power-neutral" — the usual
// anchor of a control axis whose other levels are Governor baselines.
func PowerNeutral() Level {
	return Control("power-neutral", scenario.Controlled(core.DefaultParams()))
}

// Utilisation builds a level setting the offered workload load in
// [0, 1] (workload axes); 0 means fully loaded.
func Utilisation(u float64) Level {
	return Level{
		Label: fmt.Sprintf("util=%g", u),
		Apply: func(s *scenario.Spec) { s.Utilisation = u },
	}
}
