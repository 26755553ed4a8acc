package soc

import (
	"fmt"
	"math"
)

// PowerModel computes board power from the operating point and CPU
// utilisation, following the standard CMOS decomposition
//
//	P = Pbase + Σ_core ( u · Cdyn · f · Vdd(f)² + Kleak · Vdd(f) )
//
// with a per-cluster dynamic coefficient and a per-cluster voltage/frequency
// ladder. Coefficients are calibrated against the paper's Fig. 4 (board
// power vs frequency for every core configuration under a CPU-saturating
// ray-tracing workload).
type PowerModel struct {
	// BaseWatts is the frequency-independent board floor (DRAM, eMMC,
	// regulators, fan), watts.
	BaseWatts float64
	// DynLittle and DynBig are dynamic power coefficients in W/(GHz·V²)
	// per core.
	DynLittle, DynBig float64
	// LeakLittle and LeakBig are leakage coefficients in W/V per core.
	LeakLittle, LeakBig float64
	// VddLittle and VddBig map each DVFS level to a rail voltage, volts.
	// Length must equal NumFrequencyLevels.
	VddLittle, VddBig []float64
}

// DefaultPowerModel returns coefficients calibrated to the Exynos5422
// measurements in the paper's Fig. 4: ≈1.8 W for 1×A7 at 0.2 GHz rising to
// ≈7 W for 4×A7+4×A15 at 1.4 GHz.
func DefaultPowerModel() *PowerModel {
	return &PowerModel{
		BaseWatts:  1.70,
		DynLittle:  0.126,
		DynBig:     0.500,
		LeakLittle: 0.008,
		LeakBig:    0.040,
		// Rail voltages per frequency level, approximating the Exynos5422
		// DVFS tables (LITTLE rail tops out lower than the big rail).
		VddLittle: []float64{0.90, 0.95, 1.00, 1.05, 1.10, 1.15, 1.20, 1.25},
		VddBig:    []float64{0.90, 0.94, 0.98, 1.03, 1.08, 1.12, 1.16, 1.20},
	}
}

// Validate checks dimensional consistency of the model tables.
func (m *PowerModel) Validate() error {
	if len(m.VddLittle) != NumFrequencyLevels || len(m.VddBig) != NumFrequencyLevels {
		return fmt.Errorf("soc: Vdd tables must have %d entries, got %d/%d",
			NumFrequencyLevels, len(m.VddLittle), len(m.VddBig))
	}
	if m.BaseWatts < 0 || m.DynLittle < 0 || m.DynBig < 0 || m.LeakLittle < 0 || m.LeakBig < 0 {
		return fmt.Errorf("soc: power coefficients must be non-negative")
	}
	for i := 1; i < NumFrequencyLevels; i++ {
		if m.VddLittle[i] < m.VddLittle[i-1] || m.VddBig[i] < m.VddBig[i-1] {
			return fmt.Errorf("soc: Vdd tables must be non-decreasing in frequency")
		}
	}
	return nil
}

// Power returns board power in watts at the given OPP and utilisation
// (0..1; 1 = fully CPU-bound, the paper's ray-tracing workload).
// Utilisation outside [0,1] is clamped.
func (m *PowerModel) Power(o OPP, utilisation float64) float64 {
	o = o.Clamp()
	u := math.Min(math.Max(utilisation, 0), 1)
	fGHz := o.Frequency() / 1e9
	vl := m.VddLittle[o.FreqIdx]
	vb := m.VddBig[o.FreqIdx]
	p := m.BaseWatts
	p += float64(o.Config.Little) * (u*m.DynLittle*fGHz*vl*vl + m.LeakLittle*vl)
	p += float64(o.Config.Big) * (u*m.DynBig*fGHz*vb*vb + m.LeakBig*vb)
	return p
}

// PowerAtFullLoad is Power with utilisation 1 — the surface plotted in the
// paper's Fig. 4.
func (m *PowerModel) PowerAtFullLoad(o OPP) float64 { return m.Power(o, 1) }

// uvloVolts is the regulator's deep under-voltage lockout, well below the
// 4.1 V brownout threshold.
const uvloVolts = 2.0

// ConstantPowerCurrent converts a board draw of w watts into supply
// current at supply voltage v, modelling the board's switching regulator
// as a constant-power load: I = P / V (regulator efficiency is folded
// into the calibrated power numbers). Below the under-voltage lockout the
// regulator stops switching and the draw collapses resistively instead of
// demanding unbounded current; at v <= 0 it is zero.
func ConstantPowerCurrent(w, v float64) float64 {
	if v <= 0 {
		return 0
	}
	if v < uvloVolts {
		return w / uvloVolts * (v / uvloVolts)
	}
	return w / v
}

// MinPower returns the full-load power at the minimal OPP.
func (m *PowerModel) MinPower() float64 { return m.PowerAtFullLoad(MinOPP()) }

// MaxPower returns the full-load power at the maximal OPP.
func (m *PowerModel) MaxPower() float64 { return m.PowerAtFullLoad(MaxOPP()) }

// AllOPPs enumerates the full OPP space (8 frequency levels × 20 core
// configurations) in deterministic order.
func AllOPPs() []OPP {
	var opps []OPP
	for nl := 1; nl <= 4; nl++ {
		for nb := 0; nb <= 4; nb++ {
			for fi := 0; fi < NumFrequencyLevels; fi++ {
				opps = append(opps, OPP{FreqIdx: fi, Config: CoreConfig{Little: nl, Big: nb}})
			}
		}
	}
	return opps
}

// HighestOPPWithin returns the highest-performance OPP whose full-load
// power does not exceed budget watts, scanning the whole OPP space.
// ok is false when even the minimal OPP exceeds the budget. "Higher
// performance" follows instructions/s as given by perf.
func (m *PowerModel) HighestOPPWithin(budget float64, perf *PerfModel) (best OPP, ok bool) {
	bestIPS := -1.0
	for _, o := range AllOPPs() {
		if m.PowerAtFullLoad(o) > budget {
			continue
		}
		if ips := perf.InstructionsPerSecond(o); ips > bestIPS {
			bestIPS = ips
			best = o
			ok = true
		}
	}
	return best, ok
}
