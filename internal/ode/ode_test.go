package ode

import (
	"math"
	"testing"
	"testing/quick"
)

// expDecay is dy/dt = -y with solution y0·exp(-t).
func expDecay(_ float64, y, dydt []float64) { dydt[0] = -y[0] }

// harmonic is y” = -y as a 2-state system; solution (cos t, -sin t) from
// (1, 0).
func harmonic(_ float64, y, dydt []float64) {
	dydt[0] = y[1]
	dydt[1] = -y[0]
}

func TestRK23ExpDecayAccuracy(t *testing.T) {
	y := []float64{1}
	res, err := RK23(expDecay, 0, 5, y, Options{RTol: 1e-8, ATol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-5)
	if got := y[0]; math.Abs(got-want) > 1e-6 {
		t.Errorf("y(5) = %g, want %g", got, want)
	}
	if res.Steps == 0 {
		t.Error("no steps recorded")
	}
}

func TestRK23Harmonic(t *testing.T) {
	y := []float64{1, 0}
	_, err := RK23(harmonic, 0, 2*math.Pi, y, Options{RTol: 1e-9, ATol: 1e-11})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(y[0]-1) > 1e-5 || math.Abs(y[1]) > 1e-5 {
		t.Errorf("after full period got (%g, %g), want (1, 0)", y[0], y[1])
	}
}

func TestRK23TightensWithTolerance(t *testing.T) {
	run := func(rtol float64) float64 {
		y := []float64{1}
		if _, err := RK23(expDecay, 0, 3, y, Options{RTol: rtol, ATol: rtol * 1e-2}); err != nil {
			t.Fatal(err)
		}
		return math.Abs(y[0] - math.Exp(-3))
	}
	loose := run(1e-3)
	tight := run(1e-9)
	if tight >= loose {
		t.Errorf("tight tolerance error %g not better than loose %g", tight, loose)
	}
}

func TestRK4ConvergenceOrder(t *testing.T) {
	errAt := func(h float64) float64 {
		y := []float64{1, 0}
		if _, err := RK4(harmonic, 0, 1, y, h, Options{}); err != nil {
			t.Fatal(err)
		}
		return math.Abs(y[0] - math.Cos(1))
	}
	e1 := errAt(1e-2)
	e2 := errAt(5e-3)
	ratio := e1 / e2
	if ratio < 12 || ratio > 20 { // fourth order: halving h gives ~16x
		t.Errorf("RK4 error ratio %g, want ≈16", ratio)
	}
}

func TestRK23EventLocalisation(t *testing.T) {
	// y = exp(-t) crosses 0.5 at t = ln 2.
	y := []float64{1}
	res, err := RK23(expDecay, 0, 5, y, Options{
		Events: []Event{{
			Name:      "half",
			G:         func(_ float64, y []float64) float64 { return y[0] - 0.5 },
			Direction: -1,
			Terminal:  true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped {
		t.Fatal("terminal event did not stop integration")
	}
	want := math.Log(2)
	if math.Abs(res.T-want) > 5e-6 {
		t.Errorf("event at t=%g, want %g", res.T, want)
	}
	if math.Abs(y[0]-0.5) > 5e-6 {
		t.Errorf("state at event y=%g, want 0.5", y[0])
	}
	if len(res.Hits) != 1 || res.Hits[0].Name != "half" {
		t.Errorf("hits = %+v", res.Hits)
	}
}

func TestRK23EventDirectionFilter(t *testing.T) {
	// Harmonic y0 = cos t crosses zero falling at π/2 and rising at 3π/2.
	y := []float64{1, 0}
	res, err := RK23(harmonic, 0, 7, y, Options{
		Events: []Event{{
			Name:      "risingZero",
			G:         func(_ float64, y []float64) float64 { return y[0] },
			Direction: +1,
			Terminal:  true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * math.Pi / 2
	if !res.Stopped || math.Abs(res.T-want) > 1e-5 {
		t.Errorf("rising zero at t=%g, want %g", res.T, want)
	}
}

func TestRK23NonTerminalEventsAllRecorded(t *testing.T) {
	// cos t has zeros at π/2 + kπ; over [0, 10] that is 3 zeros.
	y := []float64{1, 0}
	res, err := RK23(harmonic, 0, 10, y, Options{
		Events: []Event{{
			Name: "zero",
			G:    func(_ float64, y []float64) float64 { return y[0] },
		}},
		MaxStep: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hits) != 3 {
		t.Fatalf("got %d zero crossings, want 3: %+v", len(res.Hits), res.Hits)
	}
	wants := []float64{math.Pi / 2, 3 * math.Pi / 2, 5 * math.Pi / 2}
	for i, h := range res.Hits {
		if math.Abs(h.T-wants[i]) > 1e-4 {
			t.Errorf("hit %d at t=%g, want %g", i, h.T, wants[i])
		}
	}
}

func TestFixedStepEvents(t *testing.T) {
	y := []float64{1}
	res, err := RK4(expDecay, 0, 5, y, 1e-3, Options{
		Events: []Event{{
			Name:      "half",
			G:         func(_ float64, y []float64) float64 { return y[0] - 0.5 },
			Direction: -1,
			Terminal:  true,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stopped || math.Abs(res.T-math.Log(2)) > 1e-4 {
		t.Errorf("event at t=%g, want ln2=%g", res.T, math.Log(2))
	}
}

func TestInvalidInputs(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"empty state", func() error {
			_, err := RK23(expDecay, 0, 1, nil, Options{})
			return err
		}},
		{"backward span", func() error {
			_, err := RK23(expDecay, 1, 0, []float64{1}, Options{})
			return err
		}},
		{"zero span", func() error {
			_, err := RK23(expDecay, 1, 1, []float64{1}, Options{})
			return err
		}},
		{"NaN initial", func() error {
			_, err := RK23(expDecay, 0, 1, []float64{math.NaN()}, Options{})
			return err
		}},
		{"Inf initial", func() error {
			_, err := RK23(expDecay, 0, 1, []float64{math.Inf(1)}, Options{})
			return err
		}},
		{"rk4 bad step", func() error {
			_, err := RK4(expDecay, 0, 1, []float64{1}, -1, Options{})
			return err
		}},
	}
	for _, c := range cases {
		if err := c.run(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMaxStepsGuard(t *testing.T) {
	y := []float64{1}
	_, err := RK23(expDecay, 0, 1e9, y, Options{MaxStep: 1e-3, MaxSteps: 100})
	if err == nil {
		t.Fatal("expected MaxSteps error")
	}
}

func TestOnStepCallback(t *testing.T) {
	var times []float64
	y := []float64{1}
	_, err := RK23(expDecay, 0, 1, y, Options{
		OnStep: func(tt float64, _ []float64) { times = append(times, tt) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times) < 2 {
		t.Fatalf("OnStep called %d times", len(times))
	}
	if times[0] != 0 {
		t.Errorf("first OnStep at %g, want 0", times[0])
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Errorf("OnStep times not monotone at %d", i)
		}
	}
	if last := times[len(times)-1]; last != 1 {
		t.Errorf("last OnStep at %g, want 1", last)
	}
}

func TestHermiteReproducesCubic(t *testing.T) {
	// The dense-output interpolant must be exact for cubics.
	f := func(x float64) float64 { return 2*x*x*x - 3*x*x + x - 7 }
	df := func(x float64) float64 { return 6*x*x - 6*x + 1 }
	t0, t1 := 0.3, 1.7
	y0 := []float64{f(t0)}
	y1 := []float64{f(t1)}
	f0 := []float64{df(t0)}
	f1 := []float64{df(t1)}
	out := make([]float64, 1)
	for _, tc := range []float64{0.3, 0.5, 1.0, 1.4, 1.7} {
		hermite(out, t0, t1, tc, y0, y1, f0, f1)
		if math.Abs(out[0]-f(tc)) > 1e-12 {
			t.Errorf("hermite(%g) = %g, want %g", tc, out[0], f(tc))
		}
	}
}

// TestQuickRK23MatchesRK4 cross-validates the adaptive solver against a
// fine fixed-step RK4 run on random stable linear scalar ODEs.
func TestQuickRK23MatchesRK4(t *testing.T) {
	f := func(lambda0, y00 float64) bool {
		lambda := -math.Mod(math.Abs(lambda0), 3) - 0.1
		y0 := math.Mod(y00, 10)
		rhs := func(_ float64, y, dydt []float64) { dydt[0] = lambda * y[0] }
		ya := []float64{y0}
		if _, err := RK23(rhs, 0, 2, ya, Options{RTol: 1e-9, ATol: 1e-12}); err != nil {
			return false
		}
		yb := []float64{y0}
		if _, err := RK4(rhs, 0, 2, yb, 1e-4, Options{}); err != nil {
			return false
		}
		return math.Abs(ya[0]-yb[0]) < 1e-6*(1+math.Abs(yb[0]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 0, 1) != 1 || clamp(-5, 0, 1) != 0 || clamp(0.5, 0, 1) != 0.5 {
		t.Error("clamp misbehaves")
	}
}

func TestErrNormScaling(t *testing.T) {
	// err exactly at tolerance gives norm 1.
	en := errNorm([]float64{1e-6}, []float64{1}, []float64{1}, 0, 1e-6)
	if math.Abs(en-1) > 1e-12 {
		t.Errorf("errNorm = %g, want 1", en)
	}
	// Larger state loosens the relative scale.
	en2 := errNorm([]float64{1e-6}, []float64{10}, []float64{10}, 0, 1e-6)
	if en2 >= en {
		t.Errorf("errNorm with larger state %g should shrink below %g", en2, en)
	}
}
