package ode

import (
	"errors"
	"math"
	"testing"
)

// minStepOpts forces the reject path to clamp at MinStep with a marginal
// (1 < en <= 10) error: the first trial step of 0.1 on y' = -y at these
// tolerances has en ≈ 9.4, and the shrink factor 0.9·en^(-1/3) ≈ 0.43
// lands below MinStep = 0.05.
func minStepOpts(rtol float64) Options {
	return Options{InitialStep: 0.1, MinStep: 0.05, MaxStep: 0.1, RTol: rtol, ATol: rtol}
}

// TestRK23MinStepMarginalAcceptConsistent is the regression test for the
// reject-path fall-through: the old code accepted y1 computed with the
// pre-shrink trial step while advancing t by the clamped MinStep, letting
// state and time desynchronise (final relative error ≈ 4.9% on this
// problem). The fixed solver recomputes the step at MinStep before
// accepting, keeping the error at the tolerance scale.
func TestRK23MinStepMarginalAcceptConsistent(t *testing.T) {
	y := []float64{1}
	res, err := RK23(expDecay, 0, 1, y, minStepOpts(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("expected rejected steps; the test no longer exercises the MinStep clamp")
	}
	want := math.Exp(-1)
	if rel := math.Abs(y[0]-want) / want; rel > 1e-3 {
		t.Errorf("y(1) = %g, want %g (rel err %.2e): MinStep accept desynchronised t and y", y[0], want, rel)
	}
}

// TestRK23MinStepUnderflowStillErrors pins the failure mode: when the
// error at an actual MinStep attempt is far beyond tolerance (en > 10),
// the solver must refuse with ErrStepUnderflow instead of silently
// committing a bad step.
func TestRK23MinStepUnderflowStillErrors(t *testing.T) {
	y := []float64{1}
	_, err := RK23(expDecay, 0, 1, y, minStepOpts(1e-8))
	if !errors.Is(err, ErrStepUnderflow) {
		t.Fatalf("got err=%v, want ErrStepUnderflow", err)
	}
}

// TestRK23NaNNormRejects: an RHS that turns NaN mid-span gives a NaN
// error norm, which compares false against every bound. The solver must
// treat it as a rejection, shrink to MinStep and fail with
// ErrStepUnderflow, never accept a NaN state (the old loop returned T=NaN,
// y=[NaN] and no error).
func TestRK23NaNNormRejects(t *testing.T) {
	nanLate := func(t float64, y, dydt []float64) {
		dydt[0] = -y[0]
		if t > 0.5 {
			dydt[0] = math.NaN()
		}
	}
	y := []float64{1}
	res, err := RK23(nanLate, 0, 1, y, Options{})
	if !errors.Is(err, ErrStepUnderflow) {
		t.Fatalf("got err=%v, want ErrStepUnderflow", err)
	}
	if math.IsNaN(y[0]) || math.IsInf(y[0], 0) || math.IsNaN(res.T) {
		t.Errorf("non-finite state after the failure: T=%g y=%v", res.T, y)
	}
	if res.T > 0.5 {
		t.Errorf("accepted a step past the NaN boundary: T=%g", res.T)
	}
}

// TestIntegratorReuseMatchesRK23 verifies that one Integrator reused
// across heterogeneous problems (different dimensions, events, segmented
// continuation) is bit-identical to fresh RK23 calls.
func TestIntegratorReuseMatchesRK23(t *testing.T) {
	integ := NewIntegrator()

	// Problem 1: 2-state harmonic oscillator.
	ya := []float64{1, 0}
	yb := []float64{1, 0}
	resA, errA := integ.Integrate(harmonic, 0, 3, ya, Options{RTol: 1e-8, ATol: 1e-10})
	resB, errB := RK23(harmonic, 0, 3, yb, Options{RTol: 1e-8, ATol: 1e-10})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if ya[0] != yb[0] || ya[1] != yb[1] || resA.Steps != resB.Steps || resA.T != resB.T {
		t.Errorf("reused integrator diverged: %v vs %v (%d vs %d steps)", ya, yb, resA.Steps, resB.Steps)
	}

	// Problem 2 (reuse after a different dimension): scalar decay with a
	// terminal event, integrated in two continuation segments.
	ev := func() []Event {
		return []Event{{
			Name:      "half",
			G:         func(_ float64, y []float64) float64 { return y[0] - 0.5 },
			Direction: -1,
			Terminal:  true,
		}}
	}
	yc := []float64{1}
	yd := []float64{1}
	resC, errC := integ.Integrate(expDecay, 0, 0.3, yc, Options{Events: ev()})
	resD, errD := RK23(expDecay, 0, 0.3, yd, Options{Events: ev()})
	if errC != nil || errD != nil {
		t.Fatal(errC, errD)
	}
	if yc[0] != yd[0] {
		t.Errorf("segment 1: %g vs %g", yc[0], yd[0])
	}
	resC2, errC2 := integ.Integrate(expDecay, resC.T, 5, yc, Options{Events: ev()})
	resD2, errD2 := RK23(expDecay, resD.T, 5, yd, Options{Events: ev()})
	if errC2 != nil || errD2 != nil {
		t.Fatal(errC2, errD2)
	}
	if !resC2.Stopped || !resD2.Stopped || resC2.T != resD2.T || yc[0] != yd[0] {
		t.Errorf("segment 2 event: t=%g/%g y=%g/%g stopped=%v/%v",
			resC2.T, resD2.T, yc[0], yd[0], resC2.Stopped, resD2.Stopped)
	}
	if math.Abs(resC2.T-math.Log(2)) > 5e-6 {
		t.Errorf("event at t=%g, want ln2", resC2.T)
	}
}

// TestIntegratorSteadyStateAllocs verifies the tentpole property: after
// warm-up, Integrate performs no per-call heap allocations (event hits,
// which copy the state out, are the only permitted source).
func TestIntegratorSteadyStateAllocs(t *testing.T) {
	integ := NewIntegrator()
	y := []float64{1, 0}
	opts := Options{RTol: 1e-6, ATol: 1e-9}
	if _, err := integ.Integrate(harmonic, 0, 1, y, opts); err != nil {
		t.Fatal(err)
	}
	t0 := 1.0
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := integ.Integrate(harmonic, t0, t0+1, y, opts); err != nil {
			t.Fatal(err)
		}
		t0++
	})
	if allocs != 0 {
		t.Errorf("steady-state Integrate allocates %.1f times per call, want 0", allocs)
	}
}

// TestIntegratorDimensionGrowth reuses one Integrator on a larger system
// than it was first sized for: the buffers must transparently regrow (the
// flat backing store makes a naive capacity check on the first sub-slice
// pass even though the later sub-slices cannot hold n elements).
func TestIntegratorDimensionGrowth(t *testing.T) {
	integ := NewIntegrator()
	y1 := []float64{1}
	if _, err := integ.Integrate(expDecay, 0, 1, y1, Options{}); err != nil {
		t.Fatal(err)
	}
	y2 := []float64{1, 0}
	if _, err := integ.Integrate(harmonic, 0, 2*math.Pi, y2, Options{RTol: 1e-9, ATol: 1e-11}); err != nil {
		t.Fatal(err)
	}
	if math.Abs(y2[0]-1) > 1e-5 || math.Abs(y2[1]) > 1e-5 {
		t.Errorf("after growth, full period gave (%g, %g), want (1, 0)", y2[0], y2[1])
	}
}
