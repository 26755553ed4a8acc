package predict

import (
	"math"
	"testing"

	"pnps/internal/governor"
	"pnps/internal/soc"
)

func TestEWMAValidation(t *testing.T) {
	if _, err := NewEWMA(-0.1, 4); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := NewEWMA(1.5, 4); err == nil {
		t.Error("alpha > 1 accepted")
	}
	if _, err := NewEWMA(0.5, 0); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestEWMASeedsFromFirstObservation(t *testing.T) {
	p, err := NewEWMA(0.5, 4)
	if err != nil {
		t.Fatal(err)
	}
	p.Observe(0, 10)
	if got := p.Predict(0); got != 10 {
		t.Errorf("seeded prediction %g, want 10", got)
	}
	// Second observation blends.
	p.Observe(0, 20)
	if got := p.Predict(0); math.Abs(got-15) > 1e-12 {
		t.Errorf("blended prediction %g, want 15", got)
	}
}

func TestEWMAUnseededFallsBackToMean(t *testing.T) {
	p, _ := NewEWMA(0.5, 4)
	if p.Predict(2) != 0 {
		t.Error("empty predictor should predict 0")
	}
	p.Observe(0, 10)
	p.Observe(1, 20)
	if got := p.Predict(3); math.Abs(got-15) > 1e-12 {
		t.Errorf("fallback prediction %g, want mean 15", got)
	}
}

func TestEWMASlotWraparound(t *testing.T) {
	p, _ := NewEWMA(1.0, 3)
	p.Observe(0, 5)
	if got := p.Predict(3); got != 5 { // slot 3 ≡ slot 0
		t.Errorf("wrapped prediction %g, want 5", got)
	}
	p.Observe(-3, 7) // negative slots wrap too
	if got := p.Predict(0); got != 7 {
		t.Errorf("negative-slot observation lost: %g", got)
	}
}

func TestEWMAConvergesOnPeriodicSignal(t *testing.T) {
	p, _ := NewEWMA(0.5, 4)
	signal := []float64{1, 2, 3, 4}
	for rep := 0; rep < 20; rep++ {
		for k, v := range signal {
			p.Observe(k, v)
		}
	}
	for k, v := range signal {
		if got := p.Predict(k); math.Abs(got-v) > 1e-6 {
			t.Errorf("slot %d prediction %g, want %g", k, got, v)
		}
	}
}

func TestGovernorValidation(t *testing.T) {
	pred, _ := NewEWMA(0.5, 4)
	pm, pf := soc.DefaultPowerModel(), soc.DefaultPerfModel()
	if _, err := NewGovernor(0, 0.9, pred, pm, pf); err == nil {
		t.Error("zero slot accepted")
	}
	if _, err := NewGovernor(10, 0, pred, pm, pf); err == nil {
		t.Error("zero margin accepted")
	}
	if _, err := NewGovernor(10, 1.2, pred, pm, pf); err == nil {
		t.Error("margin > 1 accepted")
	}
	if _, err := NewGovernor(10, 0.9, nil, pm, pf); err == nil {
		t.Error("nil predictor accepted")
	}
}

func TestGovernorImplementsInterface(t *testing.T) {
	pred, _ := NewEWMA(0.5, 4)
	g, err := NewGovernor(10, 0.9, pred, soc.DefaultPowerModel(), soc.DefaultPerfModel())
	if err != nil {
		t.Fatal(err)
	}
	var _ governor.Governor = g
	if g.Name() != "predictive" || g.SamplingPeriod() != 10 {
		t.Error("interface metadata wrong")
	}
}

func TestGovernorCommitsWithinBudget(t *testing.T) {
	pred, _ := NewEWMA(1.0, 2)
	pm, pf := soc.DefaultPowerModel(), soc.DefaultPerfModel()
	g, err := NewGovernor(10, 0.9, pred, pm, pf)
	if err != nil {
		t.Fatal(err)
	}
	g.Sense = func(float64) float64 { return 4.0 } // steady 4 W harvest
	st := governor.State{Load: 1, OPP: soc.MinOPP()}
	var opp soc.OPP
	for i := 0; i < 6; i++ {
		opp = g.Decide(float64(i)*10, st)
		st.OPP = opp
	}
	if p := pm.PowerAtFullLoad(opp); p > 4.0*0.9+1e-9 {
		t.Errorf("committed %.2f W against a %.2f W budget", p, 4.0*0.9)
	}
	if opp == soc.MinOPP() {
		t.Error("governor never ramped up on a generous harvest")
	}
	if g.slot != 6 {
		t.Errorf("slot counter %d", g.slot)
	}
	g.Reset()
	if g.slot != 0 {
		t.Error("Reset did not clear slot")
	}
}

func TestGovernorZeroBudgetPicksMin(t *testing.T) {
	pred, _ := NewEWMA(1.0, 2)
	g, _ := NewGovernor(10, 0.9, pred, soc.DefaultPowerModel(), soc.DefaultPerfModel())
	g.Sense = func(float64) float64 { return 0 }
	opp := g.Decide(0, governor.State{Load: 1, OPP: soc.MaxOPP()})
	if opp != soc.MinOPP() {
		t.Errorf("dark harvest committed %v, want MinOPP", opp)
	}
}

func TestGovernorConsumptionProxyDeadlocks(t *testing.T) {
	// Without a harvest sensor the consumption proxy can never discover
	// headroom above the current OPP — the reason the experiment grants
	// the baseline an ideal sensor.
	pred, _ := NewEWMA(1.0, 2)
	g, _ := NewGovernor(10, 0.9, pred, soc.DefaultPowerModel(), soc.DefaultPerfModel())
	st := governor.State{Load: 1, OPP: soc.MinOPP()}
	for i := 0; i < 10; i++ {
		st.OPP = g.Decide(float64(i)*10, st)
	}
	if st.OPP != soc.MinOPP() {
		t.Errorf("consumption proxy escaped MinOPP to %v", st.OPP)
	}
}
