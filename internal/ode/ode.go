// Package ode implements the numerical integrators used by the circuit
// simulation: an adaptive Bogacki–Shampine 3(2) pair — the same solver
// family as MATLAB's ode23, which the paper used for its Simulink model
// (Section III) — and the fixed-step classic RK4 it is checked against.
//
// The integrators are vector-valued and allocation-conscious: all stage
// buffers are reused across steps. Event functions allow the caller to stop
// integration precisely at state-dependent conditions (e.g. the capacitor
// voltage crossing a control threshold), localised by bisection on a cubic
// Hermite dense-output interpolant.
package ode

import (
	"errors"
	"fmt"
	"math"
)

// RHS is the right-hand side of the ODE system dy/dt = f(t, y). The
// function must fill dydt and must not retain y or dydt.
type RHS func(t float64, y, dydt []float64)

// Event is a scalar function g(t, y) whose zero crossings the integrator
// localises. Crossing direction is filtered by Direction.
type Event struct {
	// Name identifies the event in results (e.g. "Vlow-crossing").
	Name string
	// G returns the event function value; a root g=0 triggers the event.
	G func(t float64, y []float64) float64
	// Direction filters crossings: +1 only rising (g goes -→+), -1 only
	// falling, 0 both.
	Direction int
	// Terminal, when true, stops the integration at the event time.
	Terminal bool
}

// EventHit records a localised event occurrence.
type EventHit struct {
	Index int // index into the Events slice passed to the integrator
	Name  string
	T     float64
	Y     []float64
}

// Options configures an integration run.
type Options struct {
	// InitialStep is the first step size attempt. If 0 a heuristic based
	// on the span is used.
	InitialStep float64
	// MinStep bounds adaptive step shrinking; reaching it without meeting
	// tolerances is an error. If 0, span*1e-14 is used.
	MinStep float64
	// MaxStep bounds the step size. If 0, the full span is allowed.
	MaxStep float64
	// RTol and ATol are the relative/absolute local error tolerances for
	// adaptive methods. Zero values default to 1e-6 and 1e-9.
	RTol, ATol float64
	// Events to localise during integration.
	Events []Event
	// OnStep, when non-nil, is invoked after every accepted step with the
	// current time and state. The callback must not retain y.
	OnStep func(t float64, y []float64)
	// MaxSteps bounds the number of accepted steps (default 50 million)
	// to guard against runaway integrations.
	MaxSteps int
}

func (o *Options) withDefaults(span float64) Options {
	out := *o
	if out.RTol == 0 {
		out.RTol = 1e-6
	}
	if out.ATol == 0 {
		out.ATol = 1e-9
	}
	if out.InitialStep == 0 {
		out.InitialStep = span / 100
	}
	if out.MinStep == 0 {
		out.MinStep = math.Max(span*1e-14, 1e-18)
	}
	if out.MaxStep == 0 {
		out.MaxStep = span
	}
	if out.MaxSteps == 0 {
		out.MaxSteps = 50_000_000
	}
	return out
}

// Result reports the outcome of an integration run.
type Result struct {
	// T and Y are the final time and state (Y aliases the caller's y
	// slice, which is updated in place).
	T float64
	Y []float64
	// Steps is the number of accepted steps.
	Steps int
	// Rejected is the number of rejected (error-controlled) steps.
	Rejected int
	// Hits lists every localised event in time order.
	Hits []EventHit
	// Stopped is true if a terminal event ended the run before t1.
	Stopped bool
	// LastStep is the adaptive controller's step-size suggestion at the
	// end of the run (excluding the truncation of the final step to the
	// span end). Callers integrating many consecutive segments should
	// feed it back as the next segment's InitialStep so each restart
	// resumes at the established step instead of the span/100 heuristic.
	LastStep float64
}

// ErrStepUnderflow is returned when the adaptive controller cannot meet the
// tolerance without shrinking the step below MinStep.
var ErrStepUnderflow = errors.New("ode: step size underflow")

func validateSpan(t0, t1 float64, y []float64) error {
	if len(y) == 0 {
		return errors.New("ode: empty state vector")
	}
	if !(t1 > t0) {
		return fmt.Errorf("ode: integration span [%g,%g] must be forward", t0, t1)
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("ode: initial state y[%d]=%g not finite", i, v)
		}
	}
	return nil
}

// errNorm computes the scaled RMS norm of the error estimate used by the
// adaptive controller: sqrt(mean((err_i / (atol + rtol*max(|y0|,|y1|)))^2)).
func errNorm(err, y0, y1 []float64, atol, rtol float64) float64 {
	var sum float64
	for i := range err {
		sc := atol + rtol*math.Max(math.Abs(y0[i]), math.Abs(y1[i]))
		e := err[i] / sc
		sum += e * e
	}
	return math.Sqrt(sum / float64(len(err)))
}
