package pv

import "math"

// Solver is the accelerated solve layer over an Array for per-simulation
// hot paths. It keeps the exact semantics of the Array methods it mirrors
// but removes their dominant costs:
//
//   - CurrentAt runs a warm-started Newton iteration seeded from the
//     previous root instead of re-bracketing from scratch. The residual is
//     strictly decreasing and concave in I, so Newton is globally
//     convergent here: after one step the iterate is at or beyond the root
//     and approaches it monotonically. A bracketed exact solve remains as
//     a fallback for numerically hostile inputs.
//   - OpenCircuitVoltage exploits that at I = 0 the implicit equation
//     collapses to a scalar equation in V alone, solved by damped-free
//     Newton from the analytic ln(Il/I0+1) estimate — versus the exact
//     method's 200-probe bisection, each probe a full implicit solve.
//   - OpenCircuitVoltage and MaximumPowerPoint results are memoised per
//     irradiance, which collapses repeated sampling under constant or
//     stepped profiles to a map lookup.
//
// Successive solves during an ODE integration move the operating point
// only slightly, so the warm start typically converges in 2-4 iterations.
// A Solver is not safe for concurrent use; each simulation engine owns
// its own, which also keeps runs bit-reproducible regardless of how many
// run in parallel.
type Solver struct {
	a *Array
	// Per-array invariants of CurrentAt, computed once by NewSolver: the
	// string thermal voltage, Rs, Rp, −I0 and Rs/Rp.
	vt, rs, rp, negI0, rsOverRp float64
	// lastG and lastIl cache the light current of the last irradiance
	// CurrentAt saw (lastG starts as NaN, which matches nothing).
	lastG, lastIl float64

	warm bool
	// Converged state of the previous CurrentAt solve: the root, the
	// inputs it was solved at, and the residual derivative there. The next
	// solve seeds Newton with a first-order extrapolation
	//
	//	i ≈ prevI + (∂I/∂V)·ΔV + (∂I/∂Il)·ΔIl
	//
	// whose sensitivities come from the implicit function theorem on the
	// diode residual, cutting typical iteration counts from ~5 to ~2.
	prevI, prevV, prevIl, prevDf float64

	// Work counters of CurrentAt: Newton iterations (residual
	// evaluations) and solves handed to the exact bracketed fallback.
	newtonIters, exactSolves int

	// Per-irradiance memos of OpenCircuitVoltage and MaximumPowerPoint,
	// created on first insert: runs that never sample the available power
	// (trace-free campaigns) never pay for them.
	voc map[float64]float64
	mpp map[float64]MPP
}

// expm1 is math.Expm1 with a fast path: for arguments above 1/16 there is
// no cancellation in exp(x)-1, so the hardware-accelerated math.Exp is
// used instead of the (software, ~3× slower) math.Expm1 — and the diode
// exponent sits around 15 at normal operating voltages.
func expm1(x float64) float64 {
	if x > 0.0625 {
		return math.Exp(x) - 1
	}
	return math.Expm1(x)
}

// memoCap bounds the per-irradiance memo maps; profiles with continuously
// varying irradiance would otherwise grow them without bound over long
// simulated spans.
const memoCap = 4096

// NewSolver returns an accelerated solver for the array. The array
// parameters must not be mutated while the solver is in use (memoised
// results would go stale).
func NewSolver(a *Array) *Solver {
	return &Solver{
		a:        a,
		vt:       a.thermalVoltageString(),
		rs:       a.Rs,
		rp:       a.Rp,
		negI0:    -a.I0,
		rsOverRp: a.Rs / a.Rp,
		lastG:    math.NaN(),
	}
}

// Work returns the CurrentAt work done so far: Newton iterations and
// solves that fell back to the exact bracketed method.
func (s *Solver) Work() (newtonIters, exactSolves int) {
	return s.newtonIters, s.exactSolves
}

// CurrentAt solves the implicit single-diode equation for the terminal
// current at voltage v and irradiance g, warm-starting Newton from the
// previous root. Agrees with Array.CurrentAt to the solver tolerance
// (~1e-12 relative).
func (s *Solver) CurrentAt(v, g float64) (float64, error) {
	if g != s.lastG {
		s.lastG, s.lastIl = g, s.a.LightCurrent(g)
	}
	il, vt, rs, rp := s.lastIl, s.vt, s.rs, s.rp

	i := il
	if s.warm {
		i = s.prevI
		if rs > 0 && s.prevDf != 0 {
			// First-order extrapolation from the previous root: by the
			// implicit function theorem, ∂I/∂V = -(df+1)/(Rs·df) and
			// ∂I/∂Il = -1/df at the converged residual derivative df.
			i += -(s.prevDf+1)/(rs*s.prevDf)*(v-s.prevV) - (il-s.prevIl)/s.prevDf
		}
	}
	var df float64
	iter := 0
	for iter < 40 {
		iter++
		// Every expression keeps the operand order of the plain residual
		// il − I0·em1 − (v+Rs·i)/Rp − i, so each iterate keeps its bits:
		// il + (−I0)·em1 is il − I0·em1 exactly in IEEE arithmetic.
		vd := v + rs*i
		arg := vd / vt
		if arg > 500 {
			arg = 500
		}
		em1 := expm1(arg)
		f := il + s.negI0*em1 - vd/rp - i
		df = s.negI0*(em1+1)*rs/vt - s.rsOverRp - 1
		next := i - f/df
		if math.IsNaN(next) || math.IsInf(next, 0) {
			break
		}
		if math.Abs(next-i) < 1e-12*(1+math.Abs(i)) {
			s.newtonIters += iter
			s.prevI, s.prevV, s.prevIl, s.prevDf = next, v, il, df
			s.warm = true
			return next, nil
		}
		i = next
	}
	// Hostile inputs (e.g. the clamped-exponent region): fall back to the
	// exact bracketed solve.
	s.newtonIters += iter
	s.exactSolves++
	iex, err := s.a.CurrentAt(v, g)
	if err == nil {
		s.prevI, s.prevV, s.prevIl, s.prevDf = iex, v, il, 0
		s.warm = true
	}
	return iex, err
}

// PowerAt returns V·I at voltage v and irradiance g using the warm solve.
func (s *Solver) PowerAt(v, g float64) (float64, error) {
	i, err := s.CurrentAt(v, g)
	if err != nil {
		return 0, err
	}
	return v * i, nil
}

// OpenCircuitVoltage returns the terminal voltage at which the output
// current is zero, memoised per irradiance.
func (s *Solver) OpenCircuitVoltage(g float64) (float64, error) {
	if g <= 0 {
		return 0, nil
	}
	if v, ok := s.voc[g]; ok {
		return v, nil
	}
	v, err := s.solveVoc(g)
	if err != nil {
		return 0, err
	}
	switch {
	case s.voc == nil:
		s.voc = make(map[float64]float64)
	case len(s.voc) >= memoCap:
		clear(s.voc)
	}
	s.voc[g] = v
	return v, nil
}

// solveVoc finds Voc by Newton on the I=0 form of the diode equation,
// q(V) = Il − I0·expm1(V/vt) − V/Rp, which is strictly decreasing and
// concave: starting from the analytic upper estimate vt·ln(Il/I0+1) the
// iterates decrease monotonically onto the root.
func (s *Solver) solveVoc(g float64) (float64, error) {
	il := s.a.LightCurrent(g)
	vt := s.a.thermalVoltageString()
	v := vt * math.Log(il/s.a.I0+1)
	for iter := 0; iter < 60; iter++ {
		arg := v / vt
		if arg > 500 {
			arg = 500
		}
		em1 := expm1(arg)
		q := il - s.a.I0*em1 - v/s.a.Rp
		dq := -s.a.I0*(em1+1)/vt - 1/s.a.Rp
		next := v - q/dq
		if math.IsNaN(next) || math.IsInf(next, 0) {
			break
		}
		if math.Abs(next-v) < 1e-12*(1+math.Abs(v)) {
			return next, nil
		}
		v = next
	}
	return s.a.OpenCircuitVoltage(g) // exact fallback
}

// MaximumPowerPoint locates the MPP at irradiance g by the same
// golden-section search as Array.MaximumPowerPoint, but with warm-started
// current solves, the fast Voc bound, and per-irradiance memoisation.
func (s *Solver) MaximumPowerPoint(g float64) (MPP, error) {
	if g <= 0 {
		return MPP{}, nil
	}
	if m, ok := s.mpp[g]; ok {
		return m, nil
	}
	voc, err := s.OpenCircuitVoltage(g)
	if err != nil {
		return MPP{}, err
	}
	v := goldenMPPVoltage(voc, func(v float64) float64 {
		p, perr := s.PowerAt(v, g)
		if perr != nil {
			return math.Inf(-1)
		}
		return p
	})
	i, err := s.CurrentAt(v, g)
	if err != nil {
		return MPP{}, err
	}
	m := MPP{V: v, I: i, P: v * i}
	switch {
	case s.mpp == nil:
		s.mpp = make(map[float64]MPP)
	case len(s.mpp) >= memoCap:
		clear(s.mpp)
	}
	s.mpp[g] = m
	return m, nil
}

// AvailablePower returns the maximum extractable power at irradiance g
// using the memoised fast MPP solve.
func (s *Solver) AvailablePower(g float64) (float64, error) {
	m, err := s.MaximumPowerPoint(g)
	if err != nil {
		return 0, err
	}
	return m.P, nil
}

// CopyState makes s's run state equal to src's: the warm start, the
// light-current cache, the work counters and both memos, copied entry
// for entry (a memo hit skips a solve, which changes the warm start the
// next solve sees). s keeps its own array and the invariants derived
// from it, which must equal src's for s to go on solving as src would.
// s reuses its own memo maps, so copying into one solver again and
// again does not allocate once the maps have grown.
func (s *Solver) CopyState(src *Solver) {
	s.lastG, s.lastIl = src.lastG, src.lastIl
	s.warm = src.warm
	s.prevI, s.prevV, s.prevIl, s.prevDf = src.prevI, src.prevV, src.prevIl, src.prevDf
	s.newtonIters, s.exactSolves = src.newtonIters, src.exactSolves
	s.voc = copyMemo(s.voc, src.voc)
	s.mpp = copyMemo(s.mpp, src.mpp)
}

// copyMemo makes dst hold exactly src's entries, reusing dst's map; a
// nil src gives an empty (or nil) dst, which memoises the same way.
func copyMemo[V any](dst, src map[float64]V) map[float64]V {
	clear(dst)
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[float64]V, len(src))
	}
	for k, v := range src {
		dst[k] = v
	}
	return dst
}
