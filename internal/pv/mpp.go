package pv

import (
	"math"
	"sync"
)

// MPP describes a maximum power point of the array at some irradiance.
type MPP struct {
	V float64 // voltage at the maximum power point, volts
	I float64 // current at the maximum power point, amps
	P float64 // maximum power, watts
}

// goldenMPPVoltage locates the voltage maximising power over [0, voc] by
// golden-section search; P(V) is unimodal for the single-diode model. It
// is shared by the exact and accelerated MPP solvers so their search
// semantics (bracketing, tolerance, iteration cap) cannot diverge.
func goldenMPPVoltage(voc float64, power func(v float64) float64) float64 {
	const phi = 0.6180339887498949
	lo, hi := 0.0, voc
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := power(x1), power(x2)
	for iter := 0; iter < 200 && hi-lo > 1e-7; iter++ {
		if f1 < f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = power(x2)
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = power(x1)
		}
	}
	return 0.5 * (lo + hi)
}

// MaximumPowerPoint locates the MPP at irradiance g by golden-section
// search over [0, Voc]. At zero irradiance it returns a zero MPP.
func (a *Array) MaximumPowerPoint(g float64) (MPP, error) {
	if g <= 0 {
		return MPP{}, nil
	}
	voc, err := a.OpenCircuitVoltage(g)
	if err != nil {
		return MPP{}, err
	}
	v := goldenMPPVoltage(voc, func(v float64) float64 {
		p, perr := a.PowerAt(v, g)
		if perr != nil {
			return math.Inf(-1)
		}
		return p
	})
	i, err := a.CurrentAt(v, g)
	if err != nil {
		return MPP{}, err
	}
	return MPP{V: v, I: i, P: v * i}, nil
}

// standardMPPs is the process-wide memo behind StandardMPP, keyed by
// array parameter values.
var standardMPPs struct {
	sync.Mutex
	m map[Array]MPP
}

// StandardMPP returns the exact MPP at StandardIrradiance, the default
// InitialVC and TargetVolts of every PV run. The solve is a pure function
// of the array's parameter values, so it runs once per distinct array per
// process and the memoised reply is bit-identical to
// a.MaximumPowerPoint(StandardIrradiance). The memo holds only array
// parameters and their MPPs and is safe for concurrent use. Invalid
// arrays are refused before the solve, so no NaN key enters the memo,
// and errors are never cached.
func (a *Array) StandardMPP() (MPP, error) {
	if err := a.Validate(); err != nil {
		return MPP{}, err
	}
	key := *a
	standardMPPs.Lock()
	m, ok := standardMPPs.m[key]
	standardMPPs.Unlock()
	if ok {
		return m, nil
	}
	// Solve outside the lock: a racing duplicate stores the same bits.
	m, err := a.MaximumPowerPoint(StandardIrradiance)
	if err != nil {
		return MPP{}, err
	}
	standardMPPs.Lock()
	if standardMPPs.m == nil {
		standardMPPs.m = make(map[Array]MPP, 4)
	} else if len(standardMPPs.m) >= memoCap {
		clear(standardMPPs.m)
	}
	standardMPPs.m[key] = m
	standardMPPs.Unlock()
	return m, nil
}

// AvailablePower returns the maximum extractable power at irradiance g —
// the paper's "estimated available harvested power" used for Fig. 14.
func (a *Array) AvailablePower(g float64) (float64, error) {
	m, err := a.MaximumPowerPoint(g)
	if err != nil {
		return 0, err
	}
	return m.P, nil
}
