package ode

import (
	"fmt"
	"math"
)

// Integrator is a reusable adaptive RK23 (Bogacki–Shampine 3(2)) stepper.
// It owns every stage, error and event-localisation buffer the method
// needs, so repeated Integrate calls — the simulation engine performs tens
// of thousands of short per-segment integrations per run — do not allocate.
//
// The zero value is ready to use; buffers are sized lazily to the state
// dimension and event count of the first call and grown on demand. An
// Integrator is not safe for concurrent use; give each goroutine its own.
//
// Integrate is one adaptive loop: each attempt evaluates the three new
// stages, accepts or rejects on the embedded error estimate, localises
// events over an accepted step and carries k4 into the next step's k1.
type Integrator struct {
	k1, k2, k3, k4     []float64
	y1, y2, ytmp, errv []float64
	yPrev              []float64
	gPrev              []float64
	yc, ybis           []float64

	// Event-localisation scratch, reused across calls: candidate hits for
	// one step, the returned Hits slice, and a flat backing store for the
	// hits' Y snapshots.
	cand []candHit
	hits []EventHit
	hitY []float64
}

type candHit struct {
	idx int
	t   float64
}

// NewIntegrator returns an empty reusable stepper.
func NewIntegrator() *Integrator { return &Integrator{} }

// Reset drops the retained buffers, returning the integrator to its zero
// state. Calling it between runs is never required — Integrate re-sizes
// buffers automatically — but it releases memory after integrating a
// large system.
func (in *Integrator) Reset() { *in = Integrator{} }

// ensure sizes the stage buffers for an n-dimensional state with nev
// events, reusing existing capacity.
func (in *Integrator) ensure(n, nev int) {
	if cap(in.k1) < n {
		// Full slice expressions cap every view at its own n floats, so a
		// later larger-dimension call cannot reslice one view into its
		// neighbour's storage — growth is detected here and reallocates.
		in.bindBuffers(make([]float64, 11*n), n)
	} else {
		in.k1, in.k2, in.k3, in.k4 = in.k1[:n], in.k2[:n], in.k3[:n], in.k4[:n]
		in.y1, in.y2 = in.y1[:n], in.y2[:n]
		in.ytmp, in.errv = in.ytmp[:n], in.errv[:n]
		in.yPrev = in.yPrev[:n]
		in.yc, in.ybis = in.yc[:n], in.ybis[:n]
	}
	if cap(in.gPrev) < nev {
		in.gPrev = make([]float64, nev)
	} else {
		in.gPrev = in.gPrev[:nev]
	}
}

// bindBuffers carves this integrator's 11 stage views of n floats each
// out of buf. Each view is capped at its own n floats so growth is
// detected by ensure.
func (in *Integrator) bindBuffers(buf []float64, n int) {
	view := func(stage int) []float64 {
		off := stage * n
		return buf[off : off+n : off+n]
	}
	in.k1, in.k2, in.k3, in.k4 = view(0), view(1), view(2), view(3)
	in.y1, in.y2 = view(4), view(5)
	in.ytmp, in.errv = view(6), view(7)
	in.yPrev = view(8)
	in.yc, in.ybis = view(9), view(10)
}

// powNegThird returns x^(−1/3), the step-size controller's power of the
// error norm. It is the exact path math.Pow takes for this exponent,
// 1 / Exp(1/3 · Log(x)), without Pow's special-case switch, Modf, Frexp
// and Ldexp, so it returns math.Pow's bits for every x but −Inf (NaN
// here, +0 from Pow), which an RMS error norm cannot produce.
func powNegThird(x float64) float64 {
	return 1 / math.Exp(1.0/3.0*math.Log(x))
}

// Integrate advances dy/dt = f(t,y) from t0 to t1 with the Bogacki–
// Shampine 3(2) embedded pair, adapting the step to the configured
// tolerances and localising any events in opts. y is updated in place and
// aliased by the returned Result. Semantics are identical to the RK23
// function (which delegates here); the integrator's buffers are reused
// across calls. Result.Hits — including each hit's Y snapshot — aliases
// reused storage and is only valid until the next Integrate or Reset on
// this Integrator; copy it to retain it.
func (in *Integrator) Integrate(f RHS, t0, t1 float64, y []float64, opts Options) (Result, error) {
	if err := validateSpan(t0, t1, y); err != nil {
		return Result{}, err
	}
	o := opts.withDefaults(t1 - t0)
	in.ensure(len(y), len(o.Events))
	in.hits, in.hitY = in.hits[:0], in.hitY[:0]

	k1, k2, k3, k4 := in.k1, in.k2, in.k3, in.k4
	y1, y2, ytmp, errv := in.y1, in.y2, in.ytmp, in.errv
	yPrev := in.yPrev

	res := Result{T: t0, Y: y}

	// Event bookkeeping: previous g values.
	gPrev := in.gPrev
	for i, ev := range o.Events {
		gPrev[i] = ev.G(t0, y)
	}
	if o.OnStep != nil {
		o.OnStep(t0, y)
	}

	t := t0
	h := clamp(o.InitialStep, o.MinStep, o.MaxStep)
	f(t, y, k1) // FSAL seed

	for t < t1 {
		if res.Steps >= o.MaxSteps {
			res.LastStep = h
			return res, fmt.Errorf("ode: RK23 exceeded MaxSteps=%d at t=%g", o.MaxSteps, t)
		}
		// hs is this attempt's step; truncation to the span end does not
		// feed back into h, so the established step size survives across
		// segmented integrations via Result.LastStep.
		hs := h
		truncated := false
		if t+hs > t1 {
			hs = t1 - t
			truncated = true
		}
		// Stage 2: k2 = f(t + hs/2, y + hs/2 k1)
		axpy(ytmp, y, hs/2, k1)
		f(t+hs/2, ytmp, k2)
		// Stage 3: k3 = f(t + 3hs/4, y + 3hs/4 k2)
		axpy(ytmp, y, 3*hs/4, k2)
		f(t+3*hs/4, ytmp, k3)
		// 3rd-order solution: y1 = y + hs(2/9 k1 + 1/3 k2 + 4/9 k3)
		for i := range y {
			y1[i] = y[i] + hs*(2.0/9.0*k1[i]+1.0/3.0*k2[i]+4.0/9.0*k3[i])
		}
		// Stage 4 (FSAL): k4 = f(t+hs, y1)
		f(t+hs, y1, k4)
		// 2nd-order solution: y2 = y + hs(7/24 k1 + 1/4 k2 + 1/3 k3 + 1/8 k4)
		for i := range y {
			y2[i] = y[i] + hs*(7.0/24.0*k1[i]+1.0/4.0*k2[i]+1.0/3.0*k3[i]+1.0/8.0*k4[i])
			errv[i] = y1[i] - y2[i]
		}
		en := errNorm(errv, y, y1, o.ATol, o.RTol)

		// A NaN norm (the RHS returned NaN somewhere in the step) rejects
		// like a huge one; every comparison with NaN is false, so it is
		// tested for explicitly.
		nan := math.IsNaN(en)
		if en > 1 || nan {
			// Reject: shrink and retry, unless this attempt already ran at
			// the smallest permitted step. Only a step actually computed
			// with hs <= MinStep may be accepted here — committing y1 from
			// a larger trial step while advancing t by the shrunk step
			// would desynchronise state and time.
			res.Rejected++
			if hs > o.MinStep {
				shrink := 0.1 // the floor; a NaN norm takes it
				if !nan {
					shrink = math.Max(0.1, 0.9*powNegThird(en))
				}
				h = math.Max(o.MinStep, hs*shrink)
				continue
			}
			if en > 10 || nan {
				res.LastStep = h
				return res, fmt.Errorf("%w: t=%g h=%g en=%g y=%v k1=%v",
					ErrStepUnderflow, t, hs, en, y, k1)
			}
			// Marginal error at MinStep: accept rather than loop forever.
		}

		// Accept the step.
		copy(yPrev, y)
		tPrev := t
		copy(y, y1)
		t += hs
		res.Steps++
		res.T = t

		// Event localisation over [tPrev, t] using cubic Hermite dense
		// output built from (yPrev, k1) and (y, k4).
		stopped, err := in.handleEvents(&res, o.Events, gPrev, tPrev, t, yPrev, y, k1, k4)
		if err != nil {
			res.LastStep = h
			return res, err
		}
		if stopped {
			res.Stopped = true
			res.LastStep = h
			if o.OnStep != nil {
				o.OnStep(res.T, y)
			}
			return res, nil
		}

		if o.OnStep != nil {
			o.OnStep(t, y)
		}

		// FSAL: k4 becomes next step's k1.
		copy(k1, k4)
		// Grow step from the attempted size; a span-truncated final step
		// may only raise the suggestion, never shrink it.
		hGrown := o.MaxStep
		if en != 0 {
			hGrown = hs * math.Min(5, 0.9*powNegThird(en))
		}
		if !truncated || hGrown > h {
			h = hGrown
		}
		h = clamp(h, o.MinStep, o.MaxStep)
	}
	res.LastStep = h
	return res, nil
}

// handleEvents scans for sign changes of each event function across the
// accepted step and bisects the dense-output interpolant to localise them.
// If a terminal event fires, the state y is rewound to the event point.
func (in *Integrator) handleEvents(res *Result, events []Event, gPrev []float64, t0, t1 float64, y0, y1, f0, f1 []float64) (bool, error) {
	if len(events) == 0 {
		return false, nil
	}
	hits := in.cand[:0]
	for i := range events {
		g1 := events[i].G(t1, y1)
		g0 := gPrev[i]
		crossed := false
		switch {
		case g0 == 0 && g1 == 0:
			// Sitting on the surface; no new crossing.
		case g0 <= 0 && g1 > 0 && events[i].Direction >= 0:
			crossed = true
		case g0 >= 0 && g1 < 0 && events[i].Direction <= 0:
			crossed = true
		}
		if crossed {
			tc := in.bisectEvent(events[i], t0, t1, y0, y1, f0, f1)
			hits = append(hits, candHit{i, tc})
		}
		gPrev[i] = g1
	}
	in.cand = hits
	if len(hits) == 0 {
		return false, nil
	}
	// Process hits in time order.
	for i := 1; i < len(hits); i++ {
		for j := i; j > 0 && hits[j].t < hits[j-1].t; j-- {
			hits[j], hits[j-1] = hits[j-1], hits[j]
		}
	}
	yc := in.yc
	for _, h := range hits {
		hermite(yc, t0, t1, h.t, y0, y1, f0, f1)
		// Snapshot the event state into the flat reused store; the Y
		// sub-slice stays valid until the next Integrate call.
		in.hitY = append(in.hitY, yc...)
		in.hits = append(in.hits, EventHit{
			Index: h.idx,
			Name:  events[h.idx].Name,
			T:     h.t,
			Y:     in.hitY[len(in.hitY)-len(yc):],
		})
		res.Hits = in.hits
		if events[h.idx].Terminal {
			// Rewind state to the event point.
			copy(y1, yc)
			res.T = h.t
			// Refresh gPrev for all events at the rewound state so a
			// subsequent integration restart is consistent.
			for i := range events {
				gPrev[i] = events[i].G(h.t, y1)
			}
			return true, nil
		}
	}
	return false, nil
}

// bisectEvent localises g=0 within [t0,t1] on the Hermite interpolant to
// ~1e-12 relative precision.
func (in *Integrator) bisectEvent(ev Event, t0, t1 float64, y0, y1, f0, f1 []float64) float64 {
	yc := in.ybis
	ga := ev.G(t0, y0)
	a, b := t0, t1
	for iter := 0; iter < 100 && (b-a) > 1e-12*math.Max(1, math.Abs(b)); iter++ {
		m := 0.5 * (a + b)
		hermite(yc, t0, t1, m, y0, y1, f0, f1)
		gm := ev.G(m, yc)
		if gm == 0 {
			return m
		}
		if (ga < 0) == (gm < 0) {
			a, ga = m, gm
		} else {
			b = m
		}
	}
	return 0.5 * (a + b)
}
