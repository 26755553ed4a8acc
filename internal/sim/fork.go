package sim

import (
	"errors"
	"math"
	"reflect"
	"sort"

	"pnps/internal/core"
	"pnps/internal/monitor"
	"pnps/internal/pv"
	"pnps/internal/soc"
)

// This file is prefix forking. Two runs of one configuration whose
// irradiance profiles agree exactly up to a time tc (pv.SharedUntil)
// compute the same thing, bit for bit, for as long as neither has read
// the irradiance past tc. A lead run (RunLead) therefore snapshots its
// engine at the top of each discrete-event pass while its reads stay
// at or before a follower's tc, and the follower (Resume) goes on from
// the last such snapshot instead of recomputing the prefix.

// Snapshot is a lead run's engine state at the top of one pass of its
// discrete-event loop. It owns copies of every mutable object of the
// run — platform, controller, monitor, PV solver, observers — and
// shares no memory with the lead or with any run resumed from it, so
// any number of runs may resume from one Snapshot concurrently.
type Snapshot struct {
	// profile is the lead's irradiance profile, and shape its settings;
	// Resume checks a follower against both.
	profile pv.Profile
	shape   runShape

	// state is the run state; its objects are the values in own, so
	// that one allocation holds them all.
	state runParts
	own   struct {
		res       Result
		platform  soc.Platform
		ctrl      core.Controller
		hw        monitor.Hardware
		high, low monitor.Channel
		solver    pv.Solver
	}
}

// RunLead executes cfg like Run and hands out, for each time in
// forkAt, the snapshot a follower whose profile agrees with cfg's up
// to that time (pv.SharedUntil) resumes from: the state at the top of
// the last loop pass before the run first read the irradiance later
// than it. hand(i, snap) is called once per fork time, on the calling
// goroutine, as soon as that snapshot is settled — mid-run for all but
// the times the run never reads past — so a follower can start while
// its lead still runs. Forks of equal or close times may be handed one
// and the same Snapshot. If the run fails, forks not yet handed are
// never handed.
//
// A run that cannot fork hands nil for every time before it starts,
// and its followers run from scratch: runs with series capture, a
// governor, a non-PV source, or an observer of a type sim does not
// define. The lead's own Result is bit-identical to Run's either way.
func RunLead(cfg Config, forkAt []float64, hand func(i int, snap *Snapshot)) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	for _, at := range forkAt {
		if math.IsNaN(at) {
			return nil, errors.New("sim: RunLead fork time is NaN")
		}
	}
	if e.canFork() {
		f := &forker{hand: hand, pending: make([]pendingFork, len(forkAt))}
		for i, at := range forkAt {
			f.pending[i] = pendingFork{at: at, slot: i}
		}
		sort.SliceStable(f.pending, func(i, j int) bool { return f.pending[i].at < f.pending[j].at })
		if len(f.pending) > 0 {
			e.forks = f
		}
	} else {
		for i := range forkAt {
			hand(i, nil)
		}
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish(), nil
}

// Resume executes cfg from snap instead of from t = 0 and returns the
// Result Run(cfg) would, bit for bit, with SharedPrefixSeconds set to
// the snapshot's time. A nil snap runs cfg from scratch, as Run does.
//
// cfg must be the lead's configuration built afresh — its own
// platform, controller and observers, constructed as the lead's were —
// except for its profile, which must agree with the lead's at least up
// to the snapshot's fork time. The state is copied into cfg's own
// objects: a TimeInStateObserver keeps its histogram pointer and ends
// holding the run's histogram. Resume refuses a snapshot whose
// irradiance reads cfg's profile does not reproduce, a config whose
// settings or observer set differ from the lead's, and a config that
// cannot fork (see RunLead).
func Resume(cfg Config, snap *Snapshot) (*Result, error) {
	if snap == nil {
		return Run(cfg)
	}
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.resumeFrom(snap); err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e.finish(), nil
}

// canFork reports whether every piece of the run's mutable state can
// be copied: no series (its observer is not a forkObserver), no
// governor, a PV source and only sim's own observers.
func (e *engine) canFork() bool {
	if e.pvSrc == nil || e.gov != nil {
		return false
	}
	for _, o := range e.observers {
		if _, ok := o.(forkObserver); !ok {
			return false
		}
	}
	return true
}

// resumeFrom copies the snapshot's state into e after checking that e
// runs what the lead ran: the same settings and observer kinds, and an
// irradiance profile that agrees with the lead's at every time the
// lead read before the snapshot.
func (e *engine) resumeFrom(s *Snapshot) error {
	l := &s.state
	switch {
	case !e.canFork():
		return errors.New("sim: Resume needs a run that can fork (no series, no governor, a PV source, sim's own observers)")
	case e.shape() != s.shape || len(e.observers) != len(l.observers):
		return errors.New("sim: Resume config differs from the lead's in its settings or observers")
	case !sameBands(e.stab, l.stab):
		return errors.New("sim: Resume stability bands differ from the lead's")
	case l.readUntil > math.Inf(-1) && !(l.readUntil > 0 && pv.SharedUntil(s.profile, e.pvSrc.Profile) >= l.readUntil):
		// A snapshot taken before any read fits every profile.
		return errors.New("sim: Resume profile does not agree with the lead's up to the snapshot")
	}
	for i, o := range l.observers {
		if reflect.TypeOf(o) != reflect.TypeOf(e.observers[i]) {
			return errors.New("sim: Resume observers differ in kind from the lead's")
		}
	}
	e.runParts.copyState(l)
	e.res.SharedPrefixSeconds = e.now
	return nil
}

func sameBands(a, b []stabAccum) bool {
	for i := range a {
		if a[i].pct != b[i].pct || a[i].lo != b[i].lo || a[i].hi != b[i].hi {
			return false
		}
	}
	return true
}

// runShape is the part of a run's settings a snapshot can be checked
// against: every validated scalar of its Config, the storage dimension,
// the controller parameters and the stability bands' count.
type runShape struct {
	duration, maxStep, initialVC, targetVolts, availPeriod float64
	restartVolts, rebootSeconds, restartCooldown           float64
	brownoutRestart                                        bool
	storageDim, bands                                      int
	controlled                                             bool
	params                                                 core.Params
	monitor                                                monitor.Config
}

func (e *engine) shape() runShape {
	c := &e.cfg
	r := runShape{
		duration: c.Duration, maxStep: c.MaxStep, initialVC: c.InitialVC,
		targetVolts: c.TargetVolts, availPeriod: c.AvailSamplePeriod,
		restartVolts: c.RestartVolts, rebootSeconds: c.RebootSeconds,
		restartCooldown: c.RestartCooldown, brownoutRestart: c.BrownoutRestart,
		storageDim: len(e.y), bands: len(e.stab),
	}
	if e.ctrl != nil {
		r.controlled, r.params, r.monitor = true, e.ctrl.Params(), c.MonitorConfig
	}
	return r
}

// copyState makes p's run state equal to src's, copying into p's own
// platform, controller, monitor, solver, accumulators and observers,
// which must match src's in kind (a snapshot's, or a follower's that
// resumeFrom checked). It is allocation-free once p's buffers have
// grown.
func (p *runParts) copyState(src *runParts) {
	p.runState = src.runState
	*p.res = *src.res
	p.platform.CopyState(src.platform)
	if src.ctrl != nil {
		*p.ctrl = *src.ctrl
		p.hw.CopyState(src.hw)
	}
	if src.fast != nil {
		p.fast.CopyState(src.fast)
	}
	copy(p.stab, src.stab)
	for i, o := range src.observers {
		o.(forkObserver).copyState(p.observers[i])
	}
}

// snapshot returns a detached copy of e's run state: its own
// platform, controller, monitor, solver, accumulators and observers,
// and none of e's configuration, closures or scratch.
func (e *engine) snapshot() *Snapshot {
	s := &Snapshot{profile: e.pvSrc.Profile, shape: e.shape()}
	c, own := &s.state, &s.own
	c.res, c.platform = &own.res, &own.platform
	c.stab = make([]stabAccum, len(e.stab))
	c.observers = make([]Observer, len(e.observers))
	if e.ctrl != nil {
		c.ctrl, c.hw = &own.ctrl, &own.hw
		own.hw.High, own.hw.Low = &own.high, &own.low
	}
	if e.fast != nil {
		c.fast = &own.solver
	}
	for i, o := range e.observers {
		c.observers[i] = o.(forkObserver).copyState(nil)
	}
	c.copyState(&e.runParts)
	return s
}

// forker is a lead run's snapshot bookkeeping.
type forker struct {
	// pending lists the fork times not yet passed, ascending; hand
	// receives each one's snapshot with its request slot.
	pending []pendingFork
	hand    func(slot int, snap *Snapshot)
	// last is the snapshot of the latest loop top, valid for every
	// pending time, or nil when it was handed out since.
	last *Snapshot
}

type pendingFork struct {
	at   float64
	slot int
}

// forkPoint runs at the top of every loop pass of a lead run. Each
// pending fork whose time the run's reads have now passed takes the
// previous top's snapshot; if forks remain, the state here is valid for
// all of them and becomes the rolling snapshot, copied into the last
// one's buffer unless that was handed out.
func (e *engine) forkPoint() {
	f := e.forks
	handed := false
	for len(f.pending) > 0 && e.readUntil > f.pending[0].at {
		f.hand(f.pending[0].slot, f.last)
		f.pending = f.pending[1:]
		handed = true
	}
	if handed {
		f.last = nil
	}
	if len(f.pending) == 0 {
		e.forks = nil
		return
	}
	if f.last == nil {
		f.last = e.snapshot()
		return
	}
	f.last.state.copyState(&e.runParts)
}

// finish hands the last snapshot, taken at the loop's exit, to every
// fork whose time the run never read past.
func (f *forker) finish() {
	for _, p := range f.pending {
		f.hand(p.slot, f.last)
	}
}
