package ode

import "fmt"

// RK4 integrates with the classic fourth-order Runge–Kutta method at a
// fixed step h — the reference the adaptive pair is checked against.
// Events are detected by sign change and localised by linear
// interpolation within the step.
func RK4(f RHS, t0, t1 float64, y []float64, h float64, opts Options) (Result, error) {
	if err := validateSpan(t0, t1, y); err != nil {
		return Result{}, err
	}
	if h <= 0 {
		return Result{}, fmt.Errorf("ode: fixed step must be positive, got %g", h)
	}
	o := opts.withDefaults(t1 - t0)
	n := len(y)
	scratch := make([][]float64, 5)
	for i := range scratch {
		scratch[i] = make([]float64, n)
	}
	ynext := make([]float64, n)
	gPrev := make([]float64, len(o.Events))
	for i, ev := range o.Events {
		gPrev[i] = ev.G(t0, y)
	}
	res := Result{T: t0, Y: y}
	if o.OnStep != nil {
		o.OnStep(t0, y)
	}
	t := t0
	for t < t1 {
		if res.Steps >= o.MaxSteps {
			return res, fmt.Errorf("ode: fixed-step integrator exceeded MaxSteps=%d at t=%g", o.MaxSteps, t)
		}
		hs := h
		if t+hs > t1 {
			hs = t1 - t
		}
		stepRK4(f, t, hs, y, ynext, scratch)
		tNext := t + hs

		// Linear event localisation within the step.
		stopped := false
		for i := range o.Events {
			g1 := o.Events[i].G(tNext, ynext)
			g0 := gPrev[i]
			crossed := (g0 <= 0 && g1 > 0 && o.Events[i].Direction >= 0) ||
				(g0 >= 0 && g1 < 0 && o.Events[i].Direction <= 0)
			if g0 == 0 && g1 == 0 {
				crossed = false
			}
			if crossed {
				frac := 0.5
				if g1 != g0 {
					frac = -g0 / (g1 - g0)
				}
				tc := t + frac*hs
				yc := make([]float64, n)
				for j := range yc {
					yc[j] = y[j] + frac*(ynext[j]-y[j])
				}
				res.Hits = append(res.Hits, EventHit{Index: i, Name: o.Events[i].Name, T: tc, Y: yc})
				if o.Events[i].Terminal {
					copy(y, yc)
					res.T = tc
					res.Stopped = true
					stopped = true
					break
				}
			}
			gPrev[i] = g1
		}
		if stopped {
			if o.OnStep != nil {
				o.OnStep(res.T, y)
			}
			return res, nil
		}
		copy(y, ynext)
		t = tNext
		res.T = t
		res.Steps++
		if o.OnStep != nil {
			o.OnStep(t, y)
		}
	}
	return res, nil
}

func stepRK4(f RHS, t, h float64, y, ynext []float64, scratch [][]float64) {
	k1, k2, k3, k4, tmp := scratch[0], scratch[1], scratch[2], scratch[3], scratch[4]
	f(t, y, k1)
	axpy(tmp, y, h/2, k1)
	f(t+h/2, tmp, k2)
	axpy(tmp, y, h/2, k2)
	f(t+h/2, tmp, k3)
	axpy(tmp, y, h, k3)
	f(t+h, tmp, k4)
	for i := range y {
		ynext[i] = y[i] + h/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
	}
}
