package soc

import (
	"errors"
	"fmt"
)

// Operating voltage envelope of the ODROID-XU4 board (paper Section IV).
const (
	// MinOperatingVolts is the brownout threshold: below this the board
	// resets (4.1 V).
	MinOperatingVolts = 4.1
	// MaxOperatingVolts is the absolute maximum supply voltage (5.7 V).
	MaxOperatingVolts = 5.7
)

// TransitionOrder selects how a multi-dimensional OPP change is sequenced
// (paper Table I).
type TransitionOrder int

const (
	// CoreFirst performs hot-plug steps before frequency steps when
	// scaling down (and frequency before cores when scaling up). This is
	// the paper's scenario (b), the one it selects: it sheds the
	// expensive cores at a still-high frequency where hot-plugging is
	// fast.
	CoreFirst TransitionOrder = iota
	// FreqFirst performs frequency steps before hot-plug steps when
	// scaling down — the paper's slower scenario (a).
	FreqFirst
)

// String implements fmt.Stringer.
func (o TransitionOrder) String() string {
	switch o {
	case CoreFirst:
		return "core-first"
	case FreqFirst:
		return "frequency-first"
	default:
		return fmt.Sprintf("TransitionOrder(%d)", int(o))
	}
}

// atomicStep is a single DVFS or hot-plug step being executed.
type atomicStep struct {
	from, to   OPP
	start, end float64
	isHotplug  bool
}

// Platform is the simulated ODROID-XU4: it tracks the current OPP, pending
// transitions, liveness, and accumulated work. All times are simulation
// seconds. The zero value is not usable; construct with NewPlatform or
// NewDefaultPlatform.
type Platform struct {
	Power   *PowerModel
	Perf    *PerfModel
	Latency *LatencyModel

	cur       OPP // OPP whose power applies right now (head of queue aside)
	committed OPP // OPP at the end of the pending queue
	// queue[qhead:] is the pending-step queue. Completed steps advance
	// qhead instead of re-slicing the front off, so the backing array is
	// reused once drained: the discrete-event loop requests tens of OPP
	// changes per simulated second and must not allocate for each.
	queue       []atomicStep
	qhead       int
	planBuf     []stepPlan // reusable planSteps scratch
	utilisation float64
	alive       bool
	now         float64

	instructions float64
	frames       float64
	busySeconds  float64 // time spent inside transitions
	dvfsSteps    int
	hotplugSteps int
	lastAccrue   float64
}

// NewPlatform builds a platform from explicit models, validating them.
func NewPlatform(pm *PowerModel, pf *PerfModel, lm *LatencyModel) (*Platform, error) {
	if pm == nil || pf == nil || lm == nil {
		return nil, errors.New("soc: NewPlatform requires all three models")
	}
	if err := pm.Validate(); err != nil {
		return nil, err
	}
	if err := pf.Validate(); err != nil {
		return nil, err
	}
	if err := lm.Validate(); err != nil {
		return nil, err
	}
	return &Platform{
		Power:       pm,
		Perf:        pf,
		Latency:     lm,
		cur:         MinOPP(),
		committed:   MinOPP(),
		queue:       make([]atomicStep, 0, 2*maxTransitionSteps),
		planBuf:     make([]stepPlan, 0, maxTransitionSteps),
		utilisation: 1,
		alive:       true,
	}, nil
}

// NewDefaultPlatform builds a platform with the calibrated Exynos5422
// models.
func NewDefaultPlatform() *Platform {
	p, err := NewPlatform(DefaultPowerModel(), DefaultPerfModel(), DefaultLatencyModel())
	if err != nil {
		panic("soc: default models invalid: " + err.Error())
	}
	return p
}

// Reset restores boot state at time t: the boot OPP, alive, counters
// zeroed.
func (p *Platform) Reset(t float64, boot OPP) {
	p.cur = boot.Clamp()
	p.committed = p.cur
	p.queue = p.queue[:0]
	p.qhead = 0
	p.alive = true
	p.now = t
	p.lastAccrue = t
	p.instructions = 0
	p.frames = 0
	p.busySeconds = 0
	p.dvfsSteps = 0
	p.hotplugSteps = 0
	p.utilisation = 1
}

// CopyState makes p's run state equal to src's: the current and
// committed OPPs, the pending transition queue, liveness, clock,
// utilisation and work counters. p keeps its own power, performance
// and latency models, which must equal src's for p to go on as src
// would, and its own queue storage, so copying into one platform again
// and again does not allocate once its queue has grown.
func (p *Platform) CopyState(src *Platform) {
	pm, pf, lm := p.Power, p.Perf, p.Latency
	queue, plan := p.queue, p.planBuf
	*p = *src
	p.Power, p.Perf, p.Latency = pm, pf, lm
	p.queue = append(queue[:0], src.pending()...)
	p.qhead = 0
	p.planBuf = plan[:0]
}

// Advance moves simulation time forward to now, completing any transitions
// that finish on the way and accruing workload progress. Calling with a
// time before the current time is an error.
func (p *Platform) Advance(now float64) error {
	if now < p.now {
		return fmt.Errorf("soc: Advance to t=%g before current t=%g", now, p.now)
	}
	for p.qhead < len(p.queue) && p.queue[p.qhead].end <= now {
		st := p.queue[p.qhead]
		p.qhead++
		// No workload progress during the step itself.
		p.busySeconds += st.end - st.start
		p.cur = st.to
		p.lastAccrue = st.end
	}
	if p.qhead == len(p.queue) {
		// Drained: rewind so the backing array is reused.
		p.queue = p.queue[:0]
		p.qhead = 0
	}
	if p.alive && (p.qhead == len(p.queue) || now < p.queue[p.qhead].start) {
		dt := now - p.lastAccrue
		if dt > 0 {
			ips := p.Perf.InstructionsPerSecond(p.cur) * p.utilisation
			p.instructions += ips * dt
			p.frames += ips * dt / p.Perf.InstructionsPerFrame
		}
	}
	p.lastAccrue = now
	p.now = now
	return nil
}

// Now returns the platform's current simulation time.
func (p *Platform) Now() float64 { return p.now }

// SetUtilisation sets workload CPU utilisation (clamped to [0,1]).
func (p *Platform) SetUtilisation(u float64) {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	p.utilisation = u
}

// Utilisation returns the configured workload utilisation.
func (p *Platform) Utilisation() float64 { return p.utilisation }

// Alive reports whether the board is powered and running.
func (p *Platform) Alive() bool { return p.alive }

// Kill powers the board off (brownout). Pending transitions are dropped.
func (p *Platform) Kill() {
	p.alive = false
	p.queue = p.queue[:0]
	p.qhead = 0
}

// pending returns the live pending-step window of the queue.
func (p *Platform) pending() []atomicStep { return p.queue[p.qhead:] }

// EffectiveOPP returns the OPP whose performance applies right now.
func (p *Platform) EffectiveOPP() OPP { return p.cur }

// CommittedOPP returns the OPP the platform will reach once all pending
// transitions complete.
func (p *Platform) CommittedOPP() OPP { return p.committed }

// InTransition reports whether an OPP change is in flight at time p.Now().
func (p *Platform) InTransition() bool {
	q := p.pending()
	return len(q) > 0 && p.now >= q[0].start
}

// TransitionEnd returns the completion time of the last queued step and
// ok=false when the queue is empty.
func (p *Platform) TransitionEnd() (float64, bool) {
	q := p.pending()
	if len(q) == 0 {
		return 0, false
	}
	return q[len(q)-1].end, true
}

// NextCompletion returns the completion time of the step currently at the
// head of the queue, and ok=false when idle.
func (p *Platform) NextCompletion() (float64, bool) {
	q := p.pending()
	if len(q) == 0 {
		return 0, false
	}
	return q[0].end, true
}

// PowerDraw returns board power in watts at the current instant. During a
// transition the larger of the two endpoint powers applies: when shedding
// load the old cores stay powered until the step completes, and when
// adding load the incoming OPP dominates as soon as the step begins.
func (p *Platform) PowerDraw() float64 {
	if !p.alive {
		return 0
	}
	if q := p.pending(); len(q) > 0 && p.now >= q[0].start {
		st := q[0]
		pf := p.Power.Power(st.from, p.utilisation)
		pt := p.Power.Power(st.to, p.utilisation)
		if pt > pf {
			return pt
		}
		return pf
	}
	return p.Power.Power(p.cur, p.utilisation)
}

// CurrentDraw returns supply current in amps at supply voltage v: the
// present PowerDraw through the ConstantPowerCurrent regulator model.
func (p *Platform) CurrentDraw(v float64) float64 {
	if !p.alive {
		return 0
	}
	return ConstantPowerCurrent(p.PowerDraw(), v)
}

// Instructions returns total completed instructions.
func (p *Platform) Instructions() float64 { return p.instructions }

// Frames returns total completed rendered frames.
func (p *Platform) Frames() float64 { return p.frames }

// BusySeconds returns cumulative time spent inside OPP transitions.
func (p *Platform) BusySeconds() float64 { return p.busySeconds }

// TransitionCounts returns the number of DVFS and hot-plug steps executed
// or queued so far.
func (p *Platform) TransitionCounts() (dvfs, hotplug int) {
	return p.dvfsSteps, p.hotplugSteps
}

// RequestOPP queues the atomic steps to move from the committed OPP to
// target, ordered per order, starting no earlier than now (steps queue
// behind any in-flight transition). It returns the predicted completion
// time. Requesting the committed OPP is a no-op returning now.
func (p *Platform) RequestOPP(target OPP, now float64, order TransitionOrder) (completion float64, err error) {
	if !p.alive {
		return now, errors.New("soc: platform is powered off")
	}
	if !target.Valid() {
		return now, fmt.Errorf("soc: invalid target OPP %+v", target)
	}
	if now < p.now {
		return now, fmt.Errorf("soc: RequestOPP at t=%g before current t=%g", now, p.now)
	}
	if target == p.committed {
		if end, ok := p.TransitionEnd(); ok {
			return end, nil
		}
		return now, nil
	}
	start := now
	if end, ok := p.TransitionEnd(); ok && end > start {
		start = end
	}
	// Compact the consumed prefix before queueing more: without this, a
	// sustained backlog (requests always landing while a transition is
	// still pending) would keep qhead from ever rewinding and the
	// backing array would grow with every request ever made instead of
	// with the pending depth. The copy is O(pending), alloc-free.
	if p.qhead > 0 {
		n := copy(p.queue, p.queue[p.qhead:])
		p.queue = p.queue[:n]
		p.qhead = 0
	}
	steps, err := planSteps(p.planBuf[:0], p.committed, target, order)
	if err != nil {
		return now, err
	}
	p.planBuf = steps[:0] // keep any capacity growth for the next request
	t := start
	for _, s := range steps {
		var lat float64
		if s.isHotplug {
			lat, err = p.Latency.HotplugLatency(s.from.Config, s.to.Config, s.from.FreqIdx)
			p.hotplugSteps++
		} else {
			lat, err = p.Latency.DVFSLatency(s.from.FreqIdx, s.to.FreqIdx, s.from.Config)
			p.dvfsSteps++
		}
		if err != nil {
			return now, err
		}
		p.queue = append(p.queue, atomicStep{from: s.from, to: s.to, start: t, end: t + lat, isHotplug: s.isHotplug})
		t += lat
	}
	p.committed = target
	return t, nil
}

// stepPlan is a latency-free description of one atomic step.
type stepPlan struct {
	from, to  OPP
	isHotplug bool
}

// maxTransitionSteps bounds the single-unit steps of any valid
// transition: the full frequency ladder plus all eight cores.
const maxTransitionSteps = NumFrequencyLevels - 1 + 8

// planSteps decomposes from->to into single-unit steps in the requested
// order, appending them to dst (pass a reused buffer sliced to length
// zero to plan without allocating; at most maxTransitionSteps are added).
// Scaling down, CoreFirst sheds cores (big before LITTLE) before
// dropping frequency; FreqFirst is the reverse. Scaling up mirrors:
// CoreFirst raises frequency before adding cores, FreqFirst adds cores
// (LITTLE before big) first.
func planSteps(dst []stepPlan, from, to OPP, order TransitionOrder) ([]stepPlan, error) {
	if !from.Valid() || !to.Valid() {
		return nil, fmt.Errorf("soc: invalid OPP in transition %v -> %v", from, to)
	}
	df := to.FreqIdx - from.FreqIdx
	dl := to.Config.Little - from.Config.Little
	db := to.Config.Big - from.Config.Big

	// Emit the single-unit moves straight into dst — this runs once per
	// threshold interrupt, so it must not build intermediate move slices.
	out := dst
	cur := from
	var stepErr error
	emit := func(dFreq, dLittle, dBig int) {
		if stepErr != nil {
			return
		}
		next := cur
		next.FreqIdx += dFreq
		next.Config.Little += dLittle
		next.Config.Big += dBig
		if !next.Valid() {
			stepErr = fmt.Errorf("soc: step planning left the envelope at %v", next)
			return
		}
		out = append(out, stepPlan{from: cur, to: next, isHotplug: dFreq == 0})
		cur = next
	}
	freqMoves := func() {
		s := 1
		if df < 0 {
			s = -1
		}
		for i := 0; i < abs(df); i++ {
			emit(s, 0, 0)
		}
	}
	// Core moves: when shedding, drop big cores first (they cost the most
	// power); when adding, bring up LITTLE cores first (cheapest power for
	// the earliest throughput).
	coreMoves := func() {
		for i := 0; i < -db; i++ {
			emit(0, 0, -1)
		}
		for i := 0; i < -dl; i++ {
			emit(0, -1, 0)
		}
		for i := 0; i < dl; i++ {
			emit(0, 1, 0)
		}
		for i := 0; i < db; i++ {
			emit(0, 0, 1)
		}
	}

	scalingDown := to.Config.TotalCores() < from.Config.TotalCores() ||
		(to.Config.TotalCores() == from.Config.TotalCores() && to.FreqIdx < from.FreqIdx)

	if coresLead := (order == CoreFirst) == scalingDown; coresLead {
		coreMoves()
		freqMoves()
	} else {
		freqMoves()
		coreMoves()
	}
	if stepErr != nil {
		return nil, stepErr
	}
	if cur != to {
		return nil, fmt.Errorf("soc: step planning did not reach target: %v != %v", cur, to)
	}
	return out, nil
}
