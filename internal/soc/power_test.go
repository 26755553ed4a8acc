package soc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPowerCalibration(t *testing.T) {
	pm := DefaultPowerModel()
	if err := pm.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper Fig. 4 anchor points.
	if p := pm.PowerAtFullLoad(MinOPP()); p < 1.6 || p > 2.0 {
		t.Errorf("min OPP power %.2f W, want ≈1.8 (paper Fig. 4)", p)
	}
	if p := pm.PowerAtFullLoad(MaxOPP()); p < 6.3 || p > 7.7 {
		t.Errorf("max OPP power %.2f W, want ≈7 (paper Fig. 4)", p)
	}
	// 4×A7 at max frequency stays under ≈3 W (Fig. 7 left panel).
	o := OPP{FreqIdx: NumFrequencyLevels - 1, Config: CoreConfig{Little: 4}}
	if p := pm.PowerAtFullLoad(o); p < 2.4 || p > 3.2 {
		t.Errorf("4xA7 max power %.2f W, want ≈2.8", p)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	pm := DefaultPowerModel()
	for _, cfg := range ConfigLadder() {
		prev := -1.0
		for fi := 0; fi < NumFrequencyLevels; fi++ {
			p := pm.PowerAtFullLoad(OPP{FreqIdx: fi, Config: cfg})
			if p <= prev {
				t.Errorf("%v: power not increasing at level %d", cfg, fi)
			}
			prev = p
		}
	}
}

func TestPowerMonotoneInCores(t *testing.T) {
	pm := DefaultPowerModel()
	for fi := 0; fi < NumFrequencyLevels; fi++ {
		prev := -1.0
		for _, cfg := range ConfigLadder() {
			p := pm.PowerAtFullLoad(OPP{FreqIdx: fi, Config: cfg})
			if p <= prev {
				t.Errorf("level %d: power not increasing along ladder at %v", fi, cfg)
			}
			prev = p
		}
	}
}

func TestBigCoreDominatesLittle(t *testing.T) {
	pm := DefaultPowerModel()
	base := OPP{FreqIdx: 5, Config: CoreConfig{Little: 2}}
	withL := OPP{FreqIdx: 5, Config: CoreConfig{Little: 3}}
	withB := OPP{FreqIdx: 5, Config: CoreConfig{Little: 2, Big: 1}}
	dl := pm.PowerAtFullLoad(withL) - pm.PowerAtFullLoad(base)
	db := pm.PowerAtFullLoad(withB) - pm.PowerAtFullLoad(base)
	if db <= dl {
		t.Errorf("big core adds %.3f W, LITTLE adds %.3f W; big must dominate", db, dl)
	}
}

func TestUtilisationScalesDynamicOnly(t *testing.T) {
	pm := DefaultPowerModel()
	o := MaxOPP()
	idle := pm.Power(o, 0)
	full := pm.Power(o, 1)
	if idle >= full {
		t.Fatalf("idle %.2f >= full %.2f", idle, full)
	}
	if idle <= pm.BaseWatts {
		t.Errorf("idle power %.2f should still include leakage above base %.2f", idle, pm.BaseWatts)
	}
	// Clamping.
	if pm.Power(o, -3) != idle || pm.Power(o, 9) != full {
		t.Error("utilisation clamping broken")
	}
}

// TestCurrentDraw checks the constant-power regulator model: I = P/V
// above the under-voltage lockout, a resistive collapse below it that
// meets the constant-power branch at the lockout, nothing at v <= 0.
func TestCurrentDraw(t *testing.T) {
	p := DefaultPowerModel().PowerAtFullLoad(MaxOPP())
	if i := ConstantPowerCurrent(p, 5.0); math.Abs(i-p/5.0) > 1e-12 {
		t.Errorf("ConstantPowerCurrent(%g, 5) = %g, want %g", p, i, p/5.0)
	}
	below := ConstantPowerCurrent(p, math.Nextafter(uvloVolts, 0))
	if at := ConstantPowerCurrent(p, uvloVolts); math.Abs(below-at) > 1e-12 {
		t.Errorf("draw jumps at the lockout: %g just below, %g at it", below, at)
	}
	if i := ConstantPowerCurrent(p, 0.01); i > ConstantPowerCurrent(p, 5) {
		t.Errorf("draw at 10 mV (%g A) exceeds draw at 5 V", i)
	}
	if ConstantPowerCurrent(p, 0) != 0 || ConstantPowerCurrent(p, -1) != 0 {
		t.Error("non-positive voltage should draw nothing")
	}
}

func TestHighestOPPWithin(t *testing.T) {
	pm := DefaultPowerModel()
	pf := DefaultPerfModel()
	// Generous budget: the max OPP should win.
	best, ok := pm.HighestOPPWithin(100, pf)
	if !ok || best != MaxOPP() {
		t.Errorf("unbounded budget picked %v", best)
	}
	// Impossible budget.
	if _, ok := pm.HighestOPPWithin(0.5, pf); ok {
		t.Error("sub-minimal budget should fail")
	}
	// Budget respected, and result is the performance argmax.
	budget := 3.5
	best, ok = pm.HighestOPPWithin(budget, pf)
	if !ok {
		t.Fatal("no OPP under 3.5 W")
	}
	if p := pm.PowerAtFullLoad(best); p > budget {
		t.Errorf("chosen OPP power %.2f exceeds budget", p)
	}
	bestIPS := pf.InstructionsPerSecond(best)
	for _, o := range AllOPPs() {
		if pm.PowerAtFullLoad(o) <= budget && pf.InstructionsPerSecond(o) > bestIPS+1e-6 {
			t.Errorf("OPP %v beats chosen %v within budget", o, best)
		}
	}
}

func TestPowerModelValidation(t *testing.T) {
	bad := DefaultPowerModel()
	bad.VddLittle = bad.VddLittle[:3]
	if err := bad.Validate(); err == nil {
		t.Error("short Vdd table accepted")
	}
	bad2 := DefaultPowerModel()
	bad2.DynBig = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative coefficient accepted")
	}
	bad3 := DefaultPowerModel()
	bad3.VddLittle[3] = 0.1 // non-monotone
	if err := bad3.Validate(); err == nil {
		t.Error("non-monotone Vdd accepted")
	}
}

// TestQuickPowerWithinEnvelope checks the full OPP/utilisation space maps
// into [BaseWatts, MaxPower].
func TestQuickPowerWithinEnvelope(t *testing.T) {
	pm := DefaultPowerModel()
	f := func(fi int8, l, b int8, u float64) bool {
		o := OPP{FreqIdx: int(fi), Config: CoreConfig{Little: int(l), Big: int(b)}}
		p := pm.Power(o, math.Mod(math.Abs(u), 1))
		return p >= pm.BaseWatts && p <= pm.MaxPower()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
