// Package pv models the photovoltaic energy-harvesting source: a
// single-diode solar cell/array equivalent circuit (the paper's Eq. 4),
// maximum-power-point analysis, and synthetic irradiance profiles with the
// macro (diurnal) and micro (cloud shadowing) variability of the paper's
// Fig. 1.
//
// The default array parameters are calibrated to the 1340 cm² mono-
// crystalline array used for the paper's experimental validation:
// Isc ≈ 1.15 A, Voc ≈ 6.6 V, and a maximum power point of ≈ 5.5 W at
// ≈ 5.3 V under full sun (Fig. 13).
package pv

import (
	"errors"
	"fmt"
	"math"
)

// Boltzmann constant over elementary charge, volts per kelvin.
const kOverQ = 8.617333262e-5

// StandardIrradiance is the full-sun reference irradiance in W/m².
const StandardIrradiance = 1000.0

// Array models a PV array as a lumped single-diode equivalent circuit:
//
//	I = Il − I0·(exp((V + Rs·I)/(Ns·N·VT)) − 1) − (V + Rs·I)/Rp
//
// where Il scales linearly with irradiance. All voltages are across the
// array terminals; currents flow out of the array.
type Array struct {
	// IscSTC is the short-circuit current at StandardIrradiance, amps.
	IscSTC float64
	// I0 is the diode reverse saturation current, amps.
	I0 float64
	// Rs is the lumped series resistance, ohms.
	Rs float64
	// Rp is the lumped parallel (shunt) resistance, ohms.
	Rp float64
	// Ns is the number of series-connected cells.
	Ns int
	// N is the diode ideality (quality) factor.
	N float64
	// TempK is the cell temperature in kelvin (sets the thermal voltage).
	TempK float64
	// AreaCM2 is the array area in cm²; informational, used by docs/traces.
	AreaCM2 float64
}

// SouthamptonArray returns parameters calibrated to the paper's 1340 cm²
// monocrystalline array (Section V-B, Fig. 13).
func SouthamptonArray() *Array {
	return &Array{
		IscSTC:  1.15,
		I0:      4.5e-9,
		Rs:      0.25,
		Rp:      200,
		Ns:      11,
		N:       1.20,
		TempK:   298.15,
		AreaCM2: 1340,
	}
}

// SmallArray returns parameters for the 250 cm² cell whose day-long output
// is plotted in the paper's Fig. 1 (peak output ≈ 1 W).
func SmallArray() *Array {
	return &Array{
		IscSTC:  0.22,
		I0:      9e-10,
		Rs:      1.2,
		Rp:      900,
		Ns:      11,
		N:       1.20,
		TempK:   298.15,
		AreaCM2: 250,
	}
}

// Validate checks the physical plausibility of the parameters. Every
// float must be finite: the !(x > 0) comparisons also refuse NaN, which
// x <= 0 would let through.
func (a *Array) Validate() error {
	switch {
	case !(a.IscSTC > 0) || math.IsInf(a.IscSTC, 0):
		return fmt.Errorf("pv: IscSTC must be positive and finite, got %g", a.IscSTC)
	case !(a.I0 > 0) || math.IsInf(a.I0, 0):
		return fmt.Errorf("pv: I0 must be positive and finite, got %g", a.I0)
	case !(a.Rs >= 0) || math.IsInf(a.Rs, 0):
		return fmt.Errorf("pv: Rs must be non-negative and finite, got %g", a.Rs)
	case !(a.Rp > 0) || math.IsInf(a.Rp, 0):
		return fmt.Errorf("pv: Rp must be positive and finite, got %g", a.Rp)
	case a.Ns < 1:
		return fmt.Errorf("pv: Ns must be >=1, got %d", a.Ns)
	case !(a.N > 0) || math.IsInf(a.N, 0):
		return fmt.Errorf("pv: ideality factor must be positive and finite, got %g", a.N)
	case !(a.TempK > 0) || math.IsInf(a.TempK, 0):
		return fmt.Errorf("pv: TempK must be positive and finite, got %g", a.TempK)
	case math.IsNaN(a.AreaCM2) || math.IsInf(a.AreaCM2, 0):
		return fmt.Errorf("pv: AreaCM2 must be finite, got %g", a.AreaCM2)
	}
	return nil
}

// thermalVoltageString returns Ns·N·VT, the denominator of the diode
// exponent for the whole series string.
func (a *Array) thermalVoltageString() float64 {
	return float64(a.Ns) * a.N * kOverQ * a.TempK
}

// LightCurrent returns the photo-generated current Il at irradiance g
// (W/m²). Negative irradiance is treated as zero.
func (a *Array) LightCurrent(g float64) float64 {
	if g <= 0 {
		return 0
	}
	return a.IscSTC * g / StandardIrradiance
}

// ErrNoConvergence is returned when the implicit IV solve fails; with
// validated parameters this indicates numerically hostile inputs.
var ErrNoConvergence = errors.New("pv: IV solve did not converge")

// CurrentAt solves the implicit single-diode equation for the terminal
// current at voltage v (volts) and irradiance g (W/m²). The equation has a
// unique root because the residual is strictly decreasing in I; the solver
// brackets the root and polishes it by safeguarded Newton iteration.
func (a *Array) CurrentAt(v, g float64) (float64, error) {
	il := a.LightCurrent(g)
	vt := a.thermalVoltageString()

	resid := func(i float64) float64 {
		arg := (v + a.Rs*i) / vt
		// Clamp the exponent: beyond this the residual is astronomically
		// negative anyway, and math.Exp would overflow to +Inf.
		if arg > 500 {
			arg = 500
		}
		return il - a.I0*math.Expm1(arg) - (v+a.Rs*i)/a.Rp - i
	}

	// Upper bracket: resid(Il) <= 0 whenever v >= 0 (diode + shunt terms
	// only subtract). For v < 0 extend upward geometrically.
	hi := il
	for iter := 0; resid(hi) > 0; iter++ {
		if iter > 200 {
			return 0, ErrNoConvergence
		}
		hi = hi*2 + 1
	}
	// Lower bracket: walk down geometrically until the residual is
	// non-negative.
	lo := hi - 1
	for iter := 0; resid(lo) < 0; iter++ {
		if iter > 200 {
			return 0, ErrNoConvergence
		}
		lo = hi - (hi-lo)*2
	}

	// Bisection with Newton acceleration.
	i := 0.5 * (lo + hi)
	for iter := 0; iter < 200; iter++ {
		f := resid(i)
		if f > 0 {
			lo = i
		} else {
			hi = i
		}
		// Newton step from the analytic derivative.
		arg := (v + a.Rs*i) / vt
		if arg > 500 {
			arg = 500
		}
		df := -a.I0*math.Exp(arg)*a.Rs/vt - a.Rs/a.Rp - 1
		next := i - f/df
		if !(next > lo && next < hi) {
			next = 0.5 * (lo + hi) // fall back to bisection
		}
		if math.Abs(next-i) < 1e-12*(1+math.Abs(i)) {
			return next, nil
		}
		i = next
	}
	if hi-lo < 1e-9 {
		return 0.5 * (lo + hi), nil
	}
	return 0, ErrNoConvergence
}

// PowerAt returns the electrical output power V·I at voltage v and
// irradiance g.
func (a *Array) PowerAt(v, g float64) (float64, error) {
	i, err := a.CurrentAt(v, g)
	if err != nil {
		return 0, err
	}
	return v * i, nil
}

// ShortCircuitCurrent returns I at V=0 for irradiance g.
func (a *Array) ShortCircuitCurrent(g float64) (float64, error) {
	return a.CurrentAt(0, g)
}

// OpenCircuitVoltage returns the terminal voltage at which the output
// current is zero, found by bisection. Returns 0 for zero irradiance.
func (a *Array) OpenCircuitVoltage(g float64) (float64, error) {
	if g <= 0 {
		return 0, nil
	}
	// Analytic upper bound ignoring Rp: Voc <= vt·ln(Il/I0 + 1).
	vt := a.thermalVoltageString()
	hi := vt * math.Log(a.LightCurrent(g)/a.I0+1)
	hi *= 1.05
	lo := 0.0
	for iter := 0; iter < 200; iter++ {
		mid := 0.5 * (lo + hi)
		i, err := a.CurrentAt(mid, g)
		if err != nil {
			return 0, err
		}
		if i > 0 {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-9 {
			break
		}
	}
	return 0.5 * (lo + hi), nil
}

// IVPoint is a single (voltage, current, power) operating point.
type IVPoint struct {
	V, I, P float64
}

// IVCurve samples n evenly spaced points of the IV characteristic between
// V=0 and Voc at irradiance g.
func (a *Array) IVCurve(g float64, n int) ([]IVPoint, error) {
	if n < 2 {
		return nil, fmt.Errorf("pv: IVCurve needs >=2 points, got %d", n)
	}
	voc, err := a.OpenCircuitVoltage(g)
	if err != nil {
		return nil, err
	}
	pts := make([]IVPoint, n)
	for k := 0; k < n; k++ {
		v := voc * float64(k) / float64(n-1)
		i, err := a.CurrentAt(v, g)
		if err != nil {
			return nil, err
		}
		pts[k] = IVPoint{V: v, I: i, P: v * i}
	}
	return pts, nil
}
