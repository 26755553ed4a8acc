// Package soc models the load platform of the paper's experiments: the
// ODROID-XU4 board built around the Samsung Exynos5422 big.LITTLE MP-SoC
// (4× 'LITTLE' Cortex-A7 + 4× 'big' Cortex-A15).
//
// The model exposes exactly the surfaces the power-neutral controller and
// the baseline governors interact with:
//
//   - an operating-performance-point (OPP) space: 8 DVFS frequency levels ×
//     core configurations (1..4 LITTLE, 0..4 big cores);
//   - a board power model P(f, cores, utilisation) calibrated to Fig. 4;
//   - a performance model (instructions/s and raytrace frames/s) calibrated
//     to Fig. 7;
//   - a transition-latency model for DVFS steps and core hot-plugging
//     calibrated to Fig. 10;
//   - a transition state machine that accounts time and charge spent while
//     switching OPPs (paper Table I).
package soc

import (
	"fmt"
)

// CoreConfig is a big.LITTLE core configuration: how many LITTLE (A7) and
// big (A15) cores are online. At least one LITTLE core stays online to
// host the OS and the power-budgeting software.
type CoreConfig struct {
	Little int // online Cortex-A7 cores, 1..4
	Big    int // online Cortex-A15 cores, 0..4
}

// TotalCores returns the number of online cores.
func (c CoreConfig) TotalCores() int { return c.Little + c.Big }

// String implements fmt.Stringer ("4xA7+2xA15").
func (c CoreConfig) String() string {
	if c.Big == 0 {
		return fmt.Sprintf("%dxA7", c.Little)
	}
	return fmt.Sprintf("%dxA7+%dxA15", c.Little, c.Big)
}

// Valid reports whether the configuration is inside the platform envelope.
func (c CoreConfig) Valid() bool {
	return c.Little >= 1 && c.Little <= 4 && c.Big >= 0 && c.Big <= 4
}

// Clamp returns the configuration clamped into the platform envelope.
func (c CoreConfig) Clamp() CoreConfig {
	out := c
	if out.Little < 1 {
		out.Little = 1
	}
	if out.Little > 4 {
		out.Little = 4
	}
	if out.Big < 0 {
		out.Big = 0
	}
	if out.Big > 4 {
		out.Big = 4
	}
	return out
}

// ConfigLadder returns the core-configuration ladder the paper benchmarks
// in Fig. 4: LITTLE cores enabled first, big cores added once all four
// LITTLE cores are online. Index 0 is the minimal configuration (1×A7),
// index 7 the maximal (4×A7 + 4×A15). The runtime controller is not
// limited to these configurations (Fig. 11 shows e.g. 2×A7+2×A15), but
// the ladder orders the benchmarked power/performance curves.
func ConfigLadder() []CoreConfig {
	return []CoreConfig{
		{Little: 1}, {Little: 2}, {Little: 3}, {Little: 4},
		{Little: 4, Big: 1}, {Little: 4, Big: 2}, {Little: 4, Big: 3}, {Little: 4, Big: 4},
	}
}

// FrequencyLevels returns the paper's 8 DVFS frequencies in hertz,
// ascending: 0.2, 0.45, 0.72, 0.92, 1.1, 1.2, 1.3, 1.4 GHz (Section III,
// chosen by the authors for linearly spaced power consumption).
func FrequencyLevels() []float64 {
	return []float64{0.2e9, 0.45e9, 0.72e9, 0.92e9, 1.1e9, 1.2e9, 1.3e9, 1.4e9}
}

// NumFrequencyLevels is len(FrequencyLevels()).
const NumFrequencyLevels = 8

// OPP is an operating performance point: a frequency level applied to a
// core configuration.
type OPP struct {
	FreqIdx int        // index into FrequencyLevels(), 0 = slowest
	Config  CoreConfig // online core configuration
}

// Valid reports whether the frequency index and configuration are in range.
func (o OPP) Valid() bool {
	return o.FreqIdx >= 0 && o.FreqIdx < NumFrequencyLevels && o.Config.Valid()
}

// Frequency returns the OPP's clock frequency in hertz.
func (o OPP) Frequency() float64 { return FrequencyLevels()[o.Clamp().FreqIdx] }

// String implements fmt.Stringer ("4xA7+1xA15@1.10GHz").
func (o OPP) String() string {
	return fmt.Sprintf("%v@%.2fGHz", o.Config, o.Frequency()/1e9)
}

// MinOPP is the lowest operating point (1×A7 at 200 MHz).
func MinOPP() OPP { return OPP{FreqIdx: 0, Config: CoreConfig{Little: 1}} }

// MaxOPP is the highest operating point (4×A7+4×A15 at 1.4 GHz).
func MaxOPP() OPP {
	return OPP{FreqIdx: NumFrequencyLevels - 1, Config: CoreConfig{Little: 4, Big: 4}}
}

// Clamp returns the OPP with the frequency index and configuration clamped
// into range.
func (o OPP) Clamp() OPP {
	c := o
	if c.FreqIdx < 0 {
		c.FreqIdx = 0
	}
	if c.FreqIdx >= NumFrequencyLevels {
		c.FreqIdx = NumFrequencyLevels - 1
	}
	c.Config = c.Config.Clamp()
	return c
}
