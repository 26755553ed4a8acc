package sim

import (
	"math"

	"pnps/internal/stats"
)

// This file is the streaming observer pipeline: instead of implicitly
// recording every signal into trace.Series, the engine publishes one
// Sample per accepted integration step and discrete event to a set of
// Observers. Series capture is itself just one observer (seriesObserver
// below); the online observers — within-band stability, envelopes,
// time-in-state histograms — compute their statistics in O(1) memory
// without retaining samples, which is what lets Monte-Carlo campaigns
// run trace-free at hot-path speed.

// Sample is one point of the engine's observation stream. The engine
// owns the value and reuses it between calls; observers must copy any
// field they want to keep. When every attached observer declares
// SupplyOnly, only T, VC and Alive are populated (the platform
// bookkeeping behind the other fields is skipped).
type Sample struct {
	// T is the simulation time, seconds.
	T float64
	// VC is the sensed supply voltage, volts.
	VC float64
	// PowerW is board+monitor power draw, watts (0 while browned out).
	PowerW float64
	// FreqGHz is the committed DVFS frequency, GHz.
	FreqGHz float64
	// LittleCores and BigCores are the committed online-core counts.
	LittleCores, BigCores int
	// Alive reports whether the platform is powered.
	Alive bool
	// AvailW is the estimated maximum extractable PV power, watts. It is
	// sampled every Config.AvailSamplePeriod (MPP solves are relatively
	// costly); HasAvail marks the samples that carry a fresh estimate.
	AvailW   float64
	HasAvail bool
}

// Observer receives the engine's sample stream. Observe is called once
// per accepted integration step and once after each discrete event, in
// time order (equal timestamps occur at zero-order-hold step changes).
// Observers run on the engine's goroutine; implementations that want
// the trace-free hot path to stay allocation-free must not allocate in
// Observe.
type Observer interface {
	Observe(s *Sample)
}

// NeedsAvailablePower is an optional Observer refinement: an observer
// returning true forces the engine to sample the PV available-power
// estimate even when series capture is off (the estimate costs an MPP
// solve every AvailSamplePeriod, so trace-free runs skip it by default).
type NeedsAvailablePower interface {
	NeedsAvailablePower() bool
}

// SupplyOnly is an optional Observer refinement: an observer returning
// true promises to read only T, VC and Alive from each Sample. When
// every attached observer is supply-only the engine skips the per-step
// platform bookkeeping (power draw, committed OPP) entirely and leaves
// those Sample fields zero — the common trace-free campaign case (a
// voltage histogram or envelope) stays on the cheap path.
type SupplyOnly interface {
	SupplyOnly() bool
}

// forkObserver is implemented by sim's own stateful observers, the
// ones a Snapshot can copy: a run with any other observer cannot fork.
type forkObserver interface {
	Observer
	// copyState copies o's whole state into dst, an observer of o's
	// type, and returns dst; for a dst of another type (or nil) it
	// returns a new copy instead.
	copyState(dst Observer) Observer
}

// Envelope is an online min/max/time-mean accumulator over a sampled
// signal, assuming zero-order hold between samples. It reproduces
// trace.Series Min/Max/TimeMean bit for bit when fed the same stream,
// in O(1) memory. The zero value is an empty envelope.
type Envelope struct {
	// N is the number of observations absorbed.
	N int
	// Min and Max are the observed extrema (undefined until N > 0).
	Min, Max float64

	area, dur    float64
	prevT, prevV float64
}

// Observe folds one (time, value) sample into the envelope.
func (e *Envelope) Observe(t, v float64) {
	if e.N == 0 {
		e.Min, e.Max = v, v
	} else {
		dt := t - e.prevT
		e.area += e.prevV * dt
		e.dur += dt
		if v < e.Min {
			e.Min = v
		}
		if v > e.Max {
			e.Max = v
		}
	}
	e.N++
	e.prevT, e.prevV = t, v
}

// TimeMean returns the time-weighted mean (zero-order hold), the last
// value when the span is empty, and NaN when nothing was observed.
func (e *Envelope) TimeMean() float64 {
	if e.N == 0 {
		return math.NaN()
	}
	if e.dur == 0 {
		return e.prevV
	}
	return e.area / e.dur
}

// stabAccum accumulates within-band supply stability online: the
// time-weighted fraction of the run spent with VC inside
// [target−|target·pct|, target+|target·pct|], zero-order hold — exactly
// trace.Series.FractionWithinPercent over the same sample stream,
// without the series.
type stabAccum struct {
	pct       float64
	lo, hi    float64
	n         int
	prevT     float64
	prevV     float64
	in, total float64
}

func newStabAccum(target, pct float64) stabAccum {
	d := math.Abs(target * pct)
	return stabAccum{pct: pct, lo: target - d, hi: target + d}
}

func (a *stabAccum) observe(t, v float64) {
	if a.n > 0 {
		dt := t - a.prevT
		a.total += dt
		if a.prevV >= a.lo && a.prevV <= a.hi {
			a.in += dt
		}
	}
	a.n++
	a.prevT, a.prevV = t, v
}

func (a *stabAccum) fraction() float64 {
	switch {
	case a.n == 0:
		return math.NaN()
	case a.n == 1:
		if a.prevV >= a.lo && a.prevV <= a.hi {
			return 1
		}
		return 0
	case a.total == 0:
		return 0
	}
	return a.in / a.total
}

// Channel selects which Sample signal a generic observer watches.
type Channel int

const (
	// ChanVC is the sensed supply voltage, volts.
	ChanVC Channel = iota
	// ChanPower is board+monitor power draw, watts.
	ChanPower
	// ChanFreqGHz is the committed DVFS frequency, GHz.
	ChanFreqGHz
	// ChanTotalCores is the committed online-core count.
	ChanTotalCores
	// ChanAvailPower is the sampled PV available-power estimate, watts.
	// Only samples with a fresh estimate are observed.
	ChanAvailPower
)

// value extracts the channel's signal from s; ok is false for samples
// that do not carry it (ChanAvailPower between estimate refreshes).
func (c Channel) value(s *Sample) (v float64, ok bool) {
	switch c {
	case ChanVC:
		return s.VC, true
	case ChanPower:
		return s.PowerW, true
	case ChanFreqGHz:
		return s.FreqGHz, true
	case ChanTotalCores:
		return float64(s.LittleCores + s.BigCores), true
	case ChanAvailPower:
		return s.AvailW, s.HasAvail
	}
	return 0, false
}

// EnvelopeObserver accumulates an Envelope (min/max/time-mean) over one
// channel of the sample stream — zero allocations per sample.
type EnvelopeObserver struct {
	// Channel selects the observed signal.
	Channel Channel
	// Env is the accumulated envelope.
	Env Envelope
}

// Observe implements Observer.
func (o *EnvelopeObserver) Observe(s *Sample) {
	if v, ok := o.Channel.value(s); ok {
		o.Env.Observe(s.T, v)
	}
}

// NeedsAvailablePower implements the optional refinement: an envelope
// over ChanAvailPower forces available-power sampling in trace-free runs.
func (o *EnvelopeObserver) NeedsAvailablePower() bool { return o.Channel == ChanAvailPower }

// SupplyOnly implements the optional refinement: a ChanVC envelope only
// reads the supply voltage.
func (o *EnvelopeObserver) SupplyOnly() bool { return o.Channel == ChanVC }

func (o *EnvelopeObserver) copyState(dst Observer) Observer {
	d, ok := dst.(*EnvelopeObserver)
	if !ok || d == nil {
		d = new(EnvelopeObserver)
	}
	*d = *o
	return d
}

// TimeInStateObserver accumulates a dwell-time histogram of one channel:
// each inter-sample interval's duration is credited to the bin of the
// value holding over it (zero-order hold). This is the trace-free form
// of the paper's Fig. 13 "time spent at each operating voltage"
// analysis; stats.Histogram.Quantile then estimates time-weighted
// quantiles of the signal without retaining a trace.
type TimeInStateObserver struct {
	// Channel selects the observed signal.
	Channel Channel
	// Hist receives the dwell-time weight; construct with
	// stats.NewHistogram spanning the expected signal range.
	Hist *stats.Histogram

	n            int
	prevT, prevV float64
}

// NewTimeInStateObserver builds a dwell-time histogram observer with n
// equal-width bins spanning [lo, hi).
func NewTimeInStateObserver(ch Channel, lo, hi float64, n int) (*TimeInStateObserver, error) {
	h, err := stats.NewHistogram(lo, hi, n)
	if err != nil {
		return nil, err
	}
	return &TimeInStateObserver{Channel: ch, Hist: h}, nil
}

// Observe implements Observer.
func (o *TimeInStateObserver) Observe(s *Sample) {
	v, ok := o.Channel.value(s)
	if !ok {
		return
	}
	if o.n > 0 {
		if dt := s.T - o.prevT; dt > 0 {
			o.Hist.AddWeighted(o.prevV, dt)
		}
	}
	o.n++
	o.prevT, o.prevV = s.T, v
}

// NeedsAvailablePower implements the optional refinement.
func (o *TimeInStateObserver) NeedsAvailablePower() bool { return o.Channel == ChanAvailPower }

// SupplyOnly implements the optional refinement: a ChanVC histogram
// only reads the supply voltage.
func (o *TimeInStateObserver) SupplyOnly() bool { return o.Channel == ChanVC }

// copyState copies into dst's own histogram, so a holder of dst.Hist
// sees the copied bins.
func (o *TimeInStateObserver) copyState(dst Observer) Observer {
	d, ok := dst.(*TimeInStateObserver)
	if !ok || d == nil {
		d = new(TimeInStateObserver)
	}
	hist := d.Hist
	if hist == nil {
		hist = new(stats.Histogram)
	}
	hist.CopyFrom(o.Hist)
	*d = *o
	d.Hist = hist
	return d
}

// seriesObserver is trace capture expressed as an observer: it appends
// every sample to the Result's series exactly as the engine's historical
// record() did, preserving bit-identical traces for trace-retaining
// runs. Appends are deduplicated per series: the integrator records the
// start of every continuation segment and the discrete handlers
// re-record after acting, so each segment boundary would otherwise
// appear twice with identical values — biasing the sample-weighted
// Series.Mean() and bloating the traces. An equal-time sample with a
// *changed* value (an OPP commit, a brownout power drop) is still
// recorded, preserving zero-order-hold steps.
type seriesObserver struct {
	res *Result
}

// Observe implements Observer.
func (o seriesObserver) Observe(s *Sample) {
	r := o.res
	r.VC.AppendDedupe(s.T, s.VC)
	r.PowerConsumed.AppendDedupe(s.T, s.PowerW)
	r.FreqGHz.AppendDedupe(s.T, s.FreqGHz)
	r.LittleCores.AppendDedupe(s.T, float64(s.LittleCores))
	r.BigCores.AppendDedupe(s.T, float64(s.BigCores))
	r.TotalCores.AppendDedupe(s.T, float64(s.LittleCores+s.BigCores))
	if s.HasAvail {
		r.PowerAvailable.Append(s.T, s.AvailW)
	}
}

// NeedsAvailablePower implements the optional refinement: series capture
// always records the available-power trace.
func (seriesObserver) NeedsAvailablePower() bool { return true }
