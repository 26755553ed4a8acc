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
// The stepping core is factored into per-step methods over a segState
// (begin/attemptPrepare/stage*/settleStep), which Integrate drives to
// completion for one segment.
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

// segState is the in-flight state of one segment integration — everything
// the step loop carries between attempts.
type segState struct {
	f     RHS
	o     Options
	y     []float64
	t, t1 float64
	h     float64
	res   Result
	err   error
	done  bool
	// Per-attempt state set by attemptPrepare and consumed by settleStep.
	hs        float64
	truncated bool
	en        float64
}

// begin validates and initialises a segment: buffer sizing, event seeding,
// the initial OnStep callback and the FSAL seed evaluation — exactly the
// preamble of the historical Integrate.
func (in *Integrator) begin(s *segState, f RHS, t0, t1 float64, y []float64, opts Options) error {
	if err := validateSpan(t0, t1, y); err != nil {
		return err
	}
	o := opts.withDefaults(t1 - t0)
	in.ensure(len(y), len(o.Events))
	in.hits, in.hitY = in.hits[:0], in.hitY[:0]

	*s = segState{f: f, o: o, y: y, t: t0, t1: t1}
	s.res = Result{T: t0, Y: y}
	for i, ev := range o.Events {
		in.gPrev[i] = ev.G(t0, y)
	}
	if o.OnStep != nil {
		o.OnStep(t0, y)
	}
	s.h = clamp(o.InitialStep, o.MinStep, o.MaxStep)
	f(t0, y, in.k1) // FSAL seed
	return nil
}

// attemptPrepare starts one step attempt: it finishes the segment when the
// span is covered, enforces MaxSteps, and picks this attempt's step size
// (truncated to the span end without feeding back into h). It returns
// false when the segment is finished or failed.
func (in *Integrator) attemptPrepare(s *segState) bool {
	if s.done {
		return false
	}
	if !(s.t < s.t1) {
		s.res.LastStep = s.h
		s.done = true
		return false
	}
	if s.res.Steps >= s.o.MaxSteps {
		s.res.LastStep = s.h
		s.err = fmt.Errorf("ode: RK23 exceeded MaxSteps=%d at t=%g", s.o.MaxSteps, s.t)
		s.done = true
		return false
	}
	s.hs = s.h
	s.truncated = false
	if s.t+s.hs > s.t1 {
		s.hs = s.t1 - s.t
		s.truncated = true
	}
	return true
}

// stageK2 evaluates stage 2: k2 = f(t + hs/2, y + hs/2 k1).
func (in *Integrator) stageK2(s *segState) {
	axpy(in.ytmp, s.y, s.hs/2, in.k1)
	s.f(s.t+s.hs/2, in.ytmp, in.k2)
}

// stageK3 evaluates stage 3: k3 = f(t + 3hs/4, y + 3hs/4 k2).
func (in *Integrator) stageK3(s *segState) {
	axpy(in.ytmp, s.y, 3*s.hs/4, in.k2)
	s.f(s.t+3*s.hs/4, in.ytmp, in.k3)
}

// stageY1K4 forms the 3rd-order solution and evaluates the FSAL stage:
// y1 = y + hs(2/9 k1 + 1/3 k2 + 4/9 k3), k4 = f(t+hs, y1).
func (in *Integrator) stageY1K4(s *segState) {
	y, k1, k2, k3, y1 := s.y, in.k1, in.k2, in.k3, in.y1
	hs := s.hs
	for i := range y {
		y1[i] = y[i] + hs*(2.0/9.0*k1[i]+1.0/3.0*k2[i]+4.0/9.0*k3[i])
	}
	s.f(s.t+hs, y1, in.k4)
}

// stageErr forms the embedded 2nd-order solution and the scaled error
// norm: y2 = y + hs(7/24 k1 + 1/4 k2 + 1/3 k3 + 1/8 k4).
func (in *Integrator) stageErr(s *segState) {
	y, k1, k2, k3, k4 := s.y, in.k1, in.k2, in.k3, in.k4
	y1, y2, errv := in.y1, in.y2, in.errv
	hs := s.hs
	for i := range y {
		y2[i] = y[i] + hs*(7.0/24.0*k1[i]+1.0/4.0*k2[i]+1.0/3.0*k3[i]+1.0/8.0*k4[i])
		errv[i] = y1[i] - y2[i]
	}
	s.en = errNorm(errv, y, y1, s.o.ATol, s.o.RTol)
}

// settleStep finishes one attempt: reject-and-shrink (the next attempt
// retries with the smaller step), accept with event localisation, the
// OnStep callback, the FSAL carry and step-size growth. Semantics are
// the historical accept/reject tail of Integrate, verbatim.
func (in *Integrator) settleStep(s *segState) {
	o := &s.o
	if s.en > 1 {
		// Reject: shrink and retry, unless this attempt already ran at
		// the smallest permitted step. Only a step actually computed
		// with hs <= MinStep may be accepted here — committing y1 from
		// a larger trial step while advancing t by the shrunk step
		// would desynchronise state and time.
		s.res.Rejected++
		if s.hs > o.MinStep {
			s.h = math.Max(o.MinStep, s.hs*math.Max(0.1, 0.9*math.Pow(s.en, -1.0/3.0)))
			return
		}
		if s.en > 10 {
			s.res.LastStep = s.h
			s.err = fmt.Errorf("%w: t=%g h=%g en=%g y=%v k1=%v",
				ErrStepUnderflow, s.t, s.hs, s.en, s.y, in.k1)
			s.done = true
			return
		}
		// Marginal error at MinStep: accept rather than loop forever.
	}

	// Accept the step.
	copy(in.yPrev, s.y)
	tPrev := s.t
	copy(s.y, in.y1)
	s.t += s.hs
	s.res.Steps++
	s.res.T = s.t

	// Event localisation over [tPrev, t] using cubic Hermite dense
	// output built from (yPrev, k1) and (y, k4).
	stopped, err := in.handleEvents(&s.res, o.Events, in.gPrev, tPrev, s.t, in.yPrev, s.y, in.k1, in.k4)
	if err != nil {
		s.res.LastStep = s.h
		s.err = err
		s.done = true
		return
	}
	if stopped {
		s.res.Stopped = true
		s.res.LastStep = s.h
		if o.OnStep != nil {
			o.OnStep(s.res.T, s.y)
		}
		s.done = true
		return
	}

	if o.OnStep != nil {
		o.OnStep(s.t, s.y)
	}

	// FSAL: k4 becomes next step's k1.
	copy(in.k1, in.k4)
	// Grow step from the attempted size; a span-truncated final step
	// may only raise the suggestion, never shrink it.
	hGrown := o.MaxStep
	if s.en != 0 {
		hGrown = s.hs * math.Min(5, 0.9*math.Pow(s.en, -1.0/3.0))
	}
	if !s.truncated || hGrown > s.h {
		s.h = hGrown
	}
	s.h = clamp(s.h, o.MinStep, o.MaxStep)
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
	var s segState
	if err := in.begin(&s, f, t0, t1, y, opts); err != nil {
		return Result{}, err
	}
	for in.attemptPrepare(&s) {
		in.stageK2(&s)
		in.stageK3(&s)
		in.stageY1K4(&s)
		in.stageErr(&s)
		in.settleStep(&s)
	}
	return s.res, s.err
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
