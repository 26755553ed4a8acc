package pv

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSouthamptonCalibration(t *testing.T) {
	arr := SouthamptonArray()
	if err := arr.Validate(); err != nil {
		t.Fatal(err)
	}
	isc, err := arr.ShortCircuitCurrent(StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	if isc < 1.0 || isc > 1.3 {
		t.Errorf("Isc = %.3f A, want ≈1.15 (paper Fig. 13)", isc)
	}
	voc, err := arr.OpenCircuitVoltage(StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	if voc < 6.2 || voc > 7.0 {
		t.Errorf("Voc = %.3f V, want ≈6.6 (paper Fig. 13)", voc)
	}
	mpp, err := arr.MaximumPowerPoint(StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	if mpp.V < 5.0 || mpp.V > 5.6 {
		t.Errorf("Vmpp = %.3f V, want ≈5.3 (paper target voltage)", mpp.V)
	}
	if mpp.P < 5.0 || mpp.P > 6.2 {
		t.Errorf("Pmpp = %.3f W, want ≈5.5 (paper Fig. 13)", mpp.P)
	}
}

func TestSmallArrayPeaksNearOneWatt(t *testing.T) {
	arr := SmallArray()
	if err := arr.Validate(); err != nil {
		t.Fatal(err)
	}
	p, err := arr.AvailablePower(StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.7 || p > 1.4 {
		t.Errorf("250 cm² cell peak power %.3f W, want ≈1 W (paper Fig. 1)", p)
	}
}

func TestCurrentMonotoneInVoltage(t *testing.T) {
	arr := SouthamptonArray()
	prev := math.Inf(1)
	for v := 0.0; v <= 6.6; v += 0.1 {
		i, err := arr.CurrentAt(v, StandardIrradiance)
		if err != nil {
			t.Fatalf("CurrentAt(%g): %v", v, err)
		}
		if i > prev+1e-9 {
			t.Errorf("I(V) not non-increasing at V=%g: %g > %g", v, i, prev)
		}
		prev = i
	}
}

func TestCurrentScalesWithIrradiance(t *testing.T) {
	arr := SouthamptonArray()
	i1, err := arr.ShortCircuitCurrent(400)
	if err != nil {
		t.Fatal(err)
	}
	i2, err := arr.ShortCircuitCurrent(800)
	if err != nil {
		t.Fatal(err)
	}
	if r := i2 / i1; r < 1.95 || r > 2.05 {
		t.Errorf("Isc(800)/Isc(400) = %.3f, want ≈2 (Il linear in G)", r)
	}
}

func TestZeroIrradiance(t *testing.T) {
	arr := SouthamptonArray()
	i, err := arr.CurrentAt(2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if i > 0 {
		t.Errorf("dark current %g A should not be positive", i)
	}
	voc, err := arr.OpenCircuitVoltage(0)
	if err != nil {
		t.Fatal(err)
	}
	if voc != 0 {
		t.Errorf("Voc at dark = %g, want 0", voc)
	}
	m, err := arr.MaximumPowerPoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if m.P != 0 {
		t.Errorf("dark MPP power %g, want 0", m.P)
	}
}

func TestNegativeCurrentAboveVoc(t *testing.T) {
	arr := SouthamptonArray()
	voc, err := arr.OpenCircuitVoltage(StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	i, err := arr.CurrentAt(voc+0.3, StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	if i >= 0 {
		t.Errorf("I above Voc = %g, want negative (diode conducts)", i)
	}
}

func TestMPPIsMaximal(t *testing.T) {
	arr := SouthamptonArray()
	for _, g := range []float64{200, 500, 1000} {
		mpp, err := arr.MaximumPowerPoint(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, dv := range []float64{-0.2, -0.05, 0.05, 0.2} {
			p, err := arr.PowerAt(mpp.V+dv, g)
			if err != nil {
				t.Fatal(err)
			}
			if p > mpp.P+1e-6 {
				t.Errorf("G=%g: P(%.3f)=%.5f exceeds MPP %.5f", g, mpp.V+dv, p, mpp.P)
			}
		}
	}
}

func TestIVCurveShape(t *testing.T) {
	arr := SouthamptonArray()
	pts, err := arr.IVCurve(StandardIrradiance, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 50 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].V != 0 {
		t.Errorf("first point V=%g, want 0", pts[0].V)
	}
	if math.Abs(pts[len(pts)-1].I) > 1e-3 {
		t.Errorf("last point I=%g, want ≈0 (Voc)", pts[len(pts)-1].I)
	}
	if _, err := arr.IVCurve(StandardIrradiance, 1); err == nil {
		t.Error("IVCurve with 1 point should error")
	}
}

func TestValidationErrors(t *testing.T) {
	mk := func(mut func(*Array)) *Array {
		a := SouthamptonArray()
		mut(a)
		return a
	}
	bad := []*Array{
		mk(func(a *Array) { a.IscSTC = 0 }),
		mk(func(a *Array) { a.I0 = -1 }),
		mk(func(a *Array) { a.Rs = -0.1 }),
		mk(func(a *Array) { a.Rp = 0 }),
		mk(func(a *Array) { a.Ns = 0 }),
		mk(func(a *Array) { a.N = 0 }),
		mk(func(a *Array) { a.TempK = 0 }),
		// Non-finite values slip past <= 0 comparisons.
		mk(func(a *Array) { a.IscSTC = math.NaN() }),
		mk(func(a *Array) { a.IscSTC = math.Inf(1) }),
		mk(func(a *Array) { a.I0 = math.NaN() }),
		mk(func(a *Array) { a.Rs = math.NaN() }),
		mk(func(a *Array) { a.Rs = math.Inf(1) }),
		mk(func(a *Array) { a.Rp = math.NaN() }),
		mk(func(a *Array) { a.Rp = math.Inf(1) }),
		mk(func(a *Array) { a.N = math.NaN() }),
		mk(func(a *Array) { a.TempK = math.NaN() }),
		mk(func(a *Array) { a.TempK = math.Inf(1) }),
		mk(func(a *Array) { a.AreaCM2 = math.NaN() }),
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// TestQuickIVSolveConverges property-tests the implicit solver across the
// operating envelope: it must converge and satisfy the diode equation.
func TestQuickIVSolveConverges(t *testing.T) {
	arr := SouthamptonArray()
	vt := float64(arr.Ns) * arr.N * kOverQ * arr.TempK
	f := func(vRaw, gRaw float64) bool {
		v := math.Mod(math.Abs(vRaw), 7.0)
		g := math.Mod(math.Abs(gRaw), 1200.0)
		i, err := arr.CurrentAt(v, g)
		if err != nil {
			return false
		}
		// Residual of the single-diode equation at the solution.
		arg := (v + arr.Rs*i) / vt
		if arg > 500 {
			arg = 500
		}
		resid := arr.LightCurrent(g) - arr.I0*math.Expm1(arg) - (v+arr.Rs*i)/arr.Rp - i
		return math.Abs(resid) < 1e-6*(1+math.Abs(i))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickPowerNonNegativeBelowVoc checks P(V) >= 0 on [0, Voc].
func TestQuickPowerNonNegativeBelowVoc(t *testing.T) {
	arr := SouthamptonArray()
	voc, err := arr.OpenCircuitVoltage(StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	f := func(frac float64) bool {
		v := math.Mod(math.Abs(frac), 1.0) * voc
		p, err := arr.PowerAt(v, StandardIrradiance)
		return err == nil && p >= -1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestMPPMonotoneInIrradiance(t *testing.T) {
	arr := SouthamptonArray()
	prev := -1.0
	for g := 100.0; g <= 1000; g += 100 {
		m, err := arr.MaximumPowerPoint(g)
		if err != nil {
			t.Fatal(err)
		}
		if m.P <= prev {
			t.Errorf("Pmpp(%g)=%g not increasing (prev %g)", g, m.P, prev)
		}
		prev = m.P
	}
}
