// Package predict implements harvest-prediction baselines from the
// paper's related work: the EWMA slot predictor of Kansal et al. (used by
// harvesting-aware schedulers) and a SolarTune-style prediction-driven
// performance governor that budgets the next interval's OPP from the
// predicted harvest.
//
// The paper's Section I argues these schemes "rely heavily upon accurate
// prediction of future availability of harvested power, making them
// unsuitable for use with sources exhibiting significant 'micro'
// variability". This package exists to reproduce that claim: the
// prediction-driven governor is run against the same shadowed profiles as
// the power-neutral controller (experiment id "predictive").
package predict

import (
	"fmt"

	"pnps/internal/governor"
	"pnps/internal/soc"
)

// EWMA is the classic exponentially-weighted moving-average slot
// predictor: the harvest expected in slot k is a blend of the harvest
// observed in the same slot on previous days (here: previous periods)
// and the running estimate.
type EWMA struct {
	// Alpha is the blend weight of the newest observation (0..1).
	Alpha float64
	// Slots is the number of slots per period.
	Slots int

	estimates []float64
	seeded    []bool
}

// NewEWMA builds a predictor with the given blend weight and slot count.
func NewEWMA(alpha float64, slots int) (*EWMA, error) {
	if alpha < 0 || alpha > 1 {
		return nil, fmt.Errorf("predict: alpha %g outside [0,1]", alpha)
	}
	if slots < 1 {
		return nil, fmt.Errorf("predict: need >=1 slot, got %d", slots)
	}
	return &EWMA{Alpha: alpha, Slots: slots,
		estimates: make([]float64, slots), seeded: make([]bool, slots)}, nil
}

// Observe feeds the measured harvest (watts) of slot k.
func (p *EWMA) Observe(slot int, watts float64) {
	k := ((slot % p.Slots) + p.Slots) % p.Slots
	if !p.seeded[k] {
		p.estimates[k] = watts
		p.seeded[k] = true
		return
	}
	p.estimates[k] = p.Alpha*watts + (1-p.Alpha)*p.estimates[k]
}

// Predict returns the expected harvest of slot k (watts). Unseeded slots
// fall back to the mean of the seeded ones, or zero.
func (p *EWMA) Predict(slot int) float64 {
	k := ((slot % p.Slots) + p.Slots) % p.Slots
	if p.seeded[k] {
		return p.estimates[k]
	}
	var sum float64
	var n int
	for i, ok := range p.seeded {
		if ok {
			sum += p.estimates[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Governor is a SolarTune-style prediction-driven performance scaler: at
// the start of every slot it predicts the slot's harvest from history and
// commits the highest-performance OPP whose full-load power fits the
// predicted budget (derated by Margin). It ignores the supply voltage
// entirely — exactly the property the paper criticises.
type Governor struct {
	// SlotSeconds is the prediction/commitment interval.
	SlotSeconds float64
	// Margin derates the predicted budget (0.9 = commit 90% of the
	// prediction).
	Margin float64
	// Predictor supplies the per-slot forecast.
	Predictor *EWMA
	// Power and Perf select the OPP for a budget.
	Power *soc.PowerModel
	Perf  *soc.PerfModel
	// Sense, when non-nil, is the harvest sensor (watts at time t) that
	// SolarTune-class schemes rely on (photodiode + calibration). When
	// nil the governor falls back to its own consumption as the harvest
	// proxy — the only observable in a sensor-less deployment.
	Sense func(t float64) float64

	slot int
}

// NewGovernor builds a prediction-driven governor with the given slot
// length and derating margin.
func NewGovernor(slotSeconds, margin float64, pred *EWMA, pm *soc.PowerModel, pf *soc.PerfModel) (*Governor, error) {
	if slotSeconds <= 0 {
		return nil, fmt.Errorf("predict: slot length must be positive, got %g", slotSeconds)
	}
	if margin <= 0 || margin > 1 {
		return nil, fmt.Errorf("predict: margin %g outside (0,1]", margin)
	}
	if pred == nil || pm == nil || pf == nil {
		return nil, fmt.Errorf("predict: predictor and models are required")
	}
	return &Governor{SlotSeconds: slotSeconds, Margin: margin,
		Predictor: pred, Power: pm, Perf: pf}, nil
}

// Name implements governor.Governor.
func (g *Governor) Name() string { return "predictive" }

// SamplingPeriod implements governor.Governor: one decision per slot.
func (g *Governor) SamplingPeriod() float64 { return g.SlotSeconds }

// Reset implements governor.Governor.
func (g *Governor) Reset() { g.slot = 0 }

// Decide implements governor.Governor: it treats each sampling tick as a
// slot boundary, feeds the predictor the power the board actually
// sustained through the elapsed slot (the only harvest proxy available in
// the paper's storage-less topology — there is no harvest current
// sensor), and commits the largest OPP under the predicted budget for the
// next slot. The supply voltage is deliberately ignored: that is the
// defining weakness of prediction-driven schemes the paper criticises.
func (g *Governor) Decide(now float64, st governor.State) soc.OPP {
	observed := g.Power.Power(st.OPP, st.Load)
	if g.Sense != nil {
		observed = g.Sense(now)
	}
	return g.NextOPP(observed)
}

// NextOPP advances one slot: records the previous slot's observation and
// returns the OPP to commit for the next slot.
func (g *Governor) NextOPP(observedWatts float64) soc.OPP {
	g.Predictor.Observe(g.slot, observedWatts)
	g.slot++
	budget := g.Predictor.Predict(g.slot) * g.Margin
	if budget <= 0 {
		return soc.MinOPP()
	}
	opp, ok := g.Power.HighestOPPWithin(budget, g.Perf)
	if !ok {
		return soc.MinOPP()
	}
	return opp
}
