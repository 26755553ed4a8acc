package experiments

import (
	"fmt"

	"pnps/internal/soc"
)

// Table1 regenerates the paper's Table I: the time and charge expended
// transitioning from the highest to the lowest OPP under the two possible
// orderings — (a) frequency then cores, (b) cores then frequency — and the
// buffer capacitance each would require. The paper selects (b) and sizes
// its 47 mF capacitor from it.
func Table1() (*Report, error) {
	pm := soc.DefaultPowerModel()
	lm := soc.DefaultLatencyModel()
	const (
		// The transition is measured at the MPP-tracking operating point;
		// the capacitor may droop from there to the 4.1 V brownout floor.
		supplyVolts = 5.3
		droopVolts  = 5.64 - soc.MinOperatingVolts
	)

	repA, err := soc.AnalyzeTransition(pm, lm, soc.MaxOPP(), soc.MinOPP(), soc.FreqFirst, supplyVolts, droopVolts)
	if err != nil {
		return nil, err
	}
	repB, err := soc.AnalyzeTransition(pm, lm, soc.MaxOPP(), soc.MinOPP(), soc.CoreFirst, supplyVolts, droopVolts)
	if err != nil {
		return nil, err
	}

	tab := Table{
		Title:  "Highest -> lowest OPP transition cost",
		Header: []string{"Scenario", "Transition time δ (ms)", "Q = ∫I dt (C)", "Required C (mF)"},
		Rows: [][]string{
			{"(a) Frequency, Core", fmt.Sprintf("%.2f", repA.TotalSeconds*1e3),
				fmt.Sprintf("%.4f", repA.Coulombs), fmt.Sprintf("%.1f", repA.RequiredCapacitance*1e3)},
			{"(b) Core, Frequency", fmt.Sprintf("%.2f", repB.TotalSeconds*1e3),
				fmt.Sprintf("%.4f", repB.Coulombs), fmt.Sprintf("%.1f", repB.RequiredCapacitance*1e3)},
		},
	}

	r := &Report{
		ID:    "table1",
		Title: "Transition cost and required buffer capacitance (paper Table I)",
		Description: "Scenario (b) sheds the power-hungry big cores while the clock is still fast, " +
			"so it finishes far sooner and draws far less charge — the 47 mF capacitor covers it with margin.",
		Tables: []Table{tab},
	}
	r.AddPaperMetric("(a) transition time", repA.TotalSeconds*1e3, 345.42, "ms", "shape target")
	r.AddPaperMetric("(a) charge", repA.Coulombs, 0.1299, "C", "")
	r.AddPaperMetric("(a) required capacitance", repA.RequiredCapacitance*1e3, 84.2, "mF", "")
	r.AddPaperMetric("(b) transition time", repB.TotalSeconds*1e3, 63.21, "ms", "")
	r.AddPaperMetric("(b) charge", repB.Coulombs, 0.0461, "C", "")
	r.AddPaperMetric("(b) required capacitance", repB.RequiredCapacitance*1e3, 15.4, "mF",
		"paper's 15.4 mF implies a 3.0 V droop for (b) (0.0461 C / 15.4 mF), twice the 1.54 V its (a) row and this model use")
	r.AddMetric("(a)/(b) charge ratio", repA.Coulombs/repB.Coulombs, "x", "paper: 2.8x")
	r.AddMetric("(b) fits 47 mF buffer", b2f(repB.RequiredCapacitance < 47e-3), "bool", "")
	return r, nil
}
