// Package monitor models the external voltage-monitoring hardware of the
// paper's Fig. 9: a potential divider feeding an analogue comparator
// (LT6703, 400 mV internal reference) whose trip point is tuned by an
// SPI-controlled 7-bit digital potentiometer (MCP4131), producing hardware
// interrupts when the supply crosses the Vhigh/Vlow thresholds.
//
// For control purposes the circuit reduces to three behaviours, all
// modelled here: threshold *quantisation* (the digipot has 129 taps, so
// requested thresholds snap to a finite grid), interrupt *latency*
// (comparator propagation plus GPIO/ISR dispatch), and *overheads* (the
// circuit's static power draw and the CPU time the processor spends in the
// ISR and reprogramming the digipot over SPI).
package monitor

import (
	"fmt"
	"math"
)

// Config describes one threshold channel's electrical behaviour.
type Config struct {
	// VMin and VMax bound the achievable threshold range, volts. The
	// divider and digipot in Fig. 9 are dimensioned so the comparator's
	// 400 mV reference maps onto the board's 4.1–5.7 V operating window
	// with margin.
	VMin, VMax float64
	// Taps is the number of digipot positions (129 for the MCP4131).
	Taps int
	// PropagationDelay is comparator + level-shifter delay, seconds.
	PropagationDelay float64
	// ISRLatency is the interrupt dispatch latency on the SoC, seconds.
	ISRLatency float64
	// ISRCPUSeconds is CPU time consumed per interrupt service.
	ISRCPUSeconds float64
	// SPICPUSeconds is CPU time consumed per threshold reprogramming.
	SPICPUSeconds float64
	// PowerWatts is the static draw of one monitoring channel.
	PowerWatts float64
}

// DefaultConfig returns values matching the paper's hardware: 129-tap
// MCP4131, LT6703 comparator (microsecond-class propagation), and a total
// two-channel power draw of 1.61 mW (Section V-D).
func DefaultConfig() Config {
	return Config{
		VMin:             3.8,
		VMax:             6.2,
		Taps:             129,
		PropagationDelay: 25e-6,
		ISRLatency:       80e-6,
		ISRCPUSeconds:    55e-6,
		SPICPUSeconds:    18e-6,
		PowerWatts:       0.805e-3, // half of the measured 1.61 mW pair
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if !(c.VMax > c.VMin) {
		return fmt.Errorf("monitor: VMax %g must exceed VMin %g", c.VMax, c.VMin)
	}
	if c.Taps < 2 {
		return fmt.Errorf("monitor: need >=2 digipot taps, got %d", c.Taps)
	}
	if c.PropagationDelay < 0 || c.ISRLatency < 0 || c.ISRCPUSeconds < 0 || c.SPICPUSeconds < 0 {
		return fmt.Errorf("monitor: latencies must be non-negative")
	}
	return nil
}

// Resolution returns the threshold grid pitch in volts.
func (c Config) Resolution() float64 {
	return (c.VMax - c.VMin) / float64(c.Taps-1)
}

// Quantize snaps a requested threshold to the nearest achievable tap
// voltage, clamping to the achievable range.
func (c Config) Quantize(v float64) float64 {
	if v <= c.VMin {
		return c.VMin
	}
	if v >= c.VMax {
		return c.VMax
	}
	step := c.Resolution()
	k := math.Round((v - c.VMin) / step)
	return c.VMin + k*step
}

// Channel is one comparator channel with a programmable threshold.
type Channel struct {
	cfg       Config
	threshold float64 // quantised, volts
}

// NewChannel builds a channel with the given configuration and an initial
// threshold (quantised immediately).
func NewChannel(cfg Config, initial float64) (*Channel, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Channel{cfg: cfg, threshold: cfg.Quantize(initial)}, nil
}

// Threshold returns the current quantised threshold in volts.
func (ch *Channel) Threshold() float64 { return ch.threshold }

// Program sets a new threshold, returning the quantised value actually
// armed and the CPU time spent on the SPI transaction.
func (ch *Channel) Program(v float64) (actual, cpuSeconds float64) {
	ch.threshold = ch.cfg.Quantize(v)
	return ch.threshold, ch.cfg.SPICPUSeconds
}

// InterruptDelay returns the time from the analogue crossing to the ISR
// starting on the SoC.
func (ch *Channel) InterruptDelay() float64 {
	return ch.cfg.PropagationDelay + ch.cfg.ISRLatency
}

// Hardware is the complete two-channel monitoring circuit.
type Hardware struct {
	High, Low *Channel
	cfg       Config

	interrupts int
	cpuSeconds float64 // accumulated ISR + SPI CPU time
}

// NewHardware builds the two-channel monitor with both thresholds armed.
func NewHardware(cfg Config, vhigh, vlow float64) (*Hardware, error) {
	hi, err := NewChannel(cfg, vhigh)
	if err != nil {
		return nil, err
	}
	lo, err := NewChannel(cfg, vlow)
	if err != nil {
		return nil, err
	}
	return &Hardware{High: hi, Low: lo, cfg: cfg}, nil
}

// CopyState makes h an exact copy of src — configuration, both
// channels' thresholds, interrupt and CPU-time counters — copying the
// channels into h's own, which must be set.
func (h *Hardware) CopyState(src *Hardware) {
	hi, lo := h.High, h.Low
	*h = *src
	*hi, *lo = *src.High, *src.Low
	h.High, h.Low = hi, lo
}

// PowerWatts returns the static power of both channels (the paper measured
// 1.61 mW total).
func (h *Hardware) PowerWatts() float64 { return 2 * h.cfg.PowerWatts }

// RecordInterrupt accounts one serviced interrupt and returns its CPU cost.
func (h *Hardware) RecordInterrupt() float64 {
	h.interrupts++
	h.cpuSeconds += h.cfg.ISRCPUSeconds
	return h.cfg.ISRCPUSeconds
}

// RecordProgramming accounts one SPI threshold update's CPU cost.
func (h *Hardware) RecordProgramming() float64 {
	h.cpuSeconds += h.cfg.SPICPUSeconds
	return h.cfg.SPICPUSeconds
}

// Interrupts returns the number of serviced interrupts.
func (h *Hardware) Interrupts() int { return h.interrupts }

// CPUOverhead returns the fraction of wall time spent servicing the
// monitor over a run of the given duration — the paper's Fig. 15 metric
// (measured mean: 0.104%).
func (h *Hardware) CPUOverhead(duration float64) float64 {
	if duration <= 0 {
		return 0
	}
	return h.cpuSeconds / duration
}
