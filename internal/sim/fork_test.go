package sim_test

import (
	"fmt"
	"math"
	"testing"

	"pnps/internal/buffer"
	"pnps/internal/governor"
	"pnps/internal/pv"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
)

// forkStorages are the three storage families every fork case runs on.
var forkStorages = []struct {
	name string
	s    sim.Storage
}{
	{"ideal", sim.IdealCap{Farads: 47e-3}},
	{"supercap", sim.NewSupercap(buffer.Supercap{
		Farads: 47e-3, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts,
	})},
	{"hybrid", sim.HybridCap{
		NodeFarads: 10e-3, ReservoirFarads: 1, DiodeDropVolts: 0.35,
		DiodeOhms: 0.2, ChargeOhms: 10, LeakOhms: 20000,
	}},
}

// forkBands are the stability bands every fork case accumulates.
var forkBands = []float64{0.05, 0.1}

// instrumented is a run's config with the observers a fork must copy:
// a supply histogram, envelopes over the supply, the board power and
// the available power (which samples MPP solves into the solver's
// memos), and two stability bands.
type instrumented struct {
	cfg  sim.Config
	hist *sim.TimeInStateObserver
	envs []*sim.EnvelopeObserver
}

func instrument(t *testing.T, cfg sim.Config) instrumented {
	t.Helper()
	tis, err := sim.NewTimeInStateObserver(sim.ChanVC, 4, 6, 32)
	if err != nil {
		t.Fatal(err)
	}
	in := instrumented{hist: tis}
	cfg.SkipSeries = true
	cfg.StabilityBands = forkBands
	cfg.Observers = []sim.Observer{tis}
	for _, ch := range []sim.Channel{sim.ChanVC, sim.ChanPower, sim.ChanAvailPower} {
		env := &sim.EnvelopeObserver{Channel: ch}
		in.envs = append(in.envs, env)
		cfg.Observers = append(cfg.Observers, env)
	}
	in.cfg = cfg
	return in
}

// requireSameRun fails unless got is want bit for bit: every exported
// Result field but SharedPrefixSeconds (and the unexported stability
// accumulators), StabilityWithin of each band, and every observer's
// state, histogram bins and under/overflow included.
func requireSameRun(t *testing.T, label string, got, want *sim.Result, gi, wi instrumented) {
	t.Helper()
	g, w := *got, *want
	g.SharedPrefixSeconds, w.SharedPrefixSeconds = 0, 0
	if gs, ws := fmt.Sprintf("%#v", g), fmt.Sprintf("%#v", w); gs != ws {
		t.Fatalf("%s: results differ\n got %s\nwant %s", label, gs, ws)
	}
	for _, b := range forkBands {
		if gb, wb := got.StabilityWithin(b), want.StabilityWithin(b); math.Float64bits(gb) != math.Float64bits(wb) {
			t.Fatalf("%s: StabilityWithin(%g) = %v, want %v", label, b, gb, wb)
		}
	}
	if gh, wh := fmt.Sprintf("%#v", *gi.hist.Hist), fmt.Sprintf("%#v", *wi.hist.Hist); gh != wh {
		t.Fatalf("%s: histograms differ\n got %s\nwant %s", label, gh, wh)
	}
	if gi.hist.Hist.Underflow() != wi.hist.Hist.Underflow() || gi.hist.Hist.Overflow() != wi.hist.Hist.Overflow() ||
		gi.hist.Hist.Total() != wi.hist.Hist.Total() {
		t.Fatalf("%s: histogram under/overflow or total differ", label)
	}
	for k := range gi.envs {
		if ge, we := fmt.Sprintf("%#v", *gi.envs[k]), fmt.Sprintf("%#v", *wi.envs[k]); ge != we {
			t.Fatalf("%s: envelope %d differs\n got %s\nwant %s", label, k, ge, we)
		}
	}
}

// forkFamily runs lead and followers the way a study cell does — the
// lead with RunLead at each follower's agreement time, each follower
// with Resume — and requires every follower to equal its own sim.Run.
// build returns a fresh config for one seed. It returns the followers'
// snapshot times.
func forkFamily(t *testing.T, label string, build func(seed int64) sim.Config, lead int64, followers []int64, at []float64) []float64 {
	t.Helper()
	leadRun := instrument(t, build(lead))
	leadRes, snaps, err := runLead(leadRun.cfg, at)
	if err != nil {
		t.Fatalf("%s: lead: %v", label, err)
	}
	ref := instrument(t, build(lead))
	want, err := sim.Run(ref.cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameRun(t, label+" lead", leadRes, want, leadRun, ref)
	if leadRes.SharedPrefixSeconds != 0 {
		t.Fatalf("%s: lead took %v s from nowhere", label, leadRes.SharedPrefixSeconds)
	}
	var times []float64
	for k, seed := range followers {
		fl := fmt.Sprintf("%s follower seed %d (tc %v)", label, seed, at[k])
		if snaps[k] == nil {
			t.Fatalf("%s: no snapshot", fl)
		}
		fr := instrument(t, build(seed))
		got, err := sim.Resume(fr.cfg, snaps[k])
		if err != nil {
			t.Fatalf("%s: %v", fl, err)
		}
		sr := instrument(t, build(seed))
		want, err := sim.Run(sr.cfg)
		if err != nil {
			t.Fatal(err)
		}
		requireSameRun(t, fl, got, want, fr, sr)
		// The snapshot precedes every read past the fork time, and the
		// run read the irradiance at its own clock.
		if !(got.SharedPrefixSeconds >= 0 && got.SharedPrefixSeconds <= max(at[k], 0)) {
			t.Fatalf("%s: shared %v s", fl, got.SharedPrefixSeconds)
		}
		times = append(times, got.SharedPrefixSeconds)
	}
	return times
}

// runLead runs sim.RunLead and collects its snapshots, failing on a
// fork handed twice or never.
func runLead(cfg sim.Config, at []float64) (*sim.Result, []*sim.Snapshot, error) {
	snaps := make([]*sim.Snapshot, len(at))
	handed := make([]int, len(at))
	res, err := sim.RunLead(cfg, at, func(i int, s *sim.Snapshot) {
		snaps[i] = s
		handed[i]++
	})
	for i, n := range handed {
		if err == nil && n != 1 {
			err = fmt.Errorf("fork %d handed %d times", i, n)
		}
	}
	return res, snaps, err
}

// TestForkedRunsMatchScratch is the oracle for prefix forking: for
// every registry scenario whose profile is a cloud overlay, on ideal,
// supercap and hybrid storage, at 2 s and 10 s, eight clouded seeds
// resumed from a lead's snapshots equal their own runs from scratch,
// bit for bit. At 2 s the lead is a cloud-free seed; at 10 s it is the
// clouded seed whose first cloud comes last. One follower of each
// family forks at time 0, from the lead's initial state.
func TestForkedRunsMatchScratch(t *testing.T) {
	durations := []float64{2, 10}
	if testing.Short() {
		durations = durations[:1]
	}
	families, totalShared := 0, 0.0
	for _, spec := range scenario.List() {
		if spec.Profile == nil {
			continue
		}
		if _, ok := spec.Profile(1, 1).(*pv.Clouds); !ok {
			continue
		}
		for _, d := range durations {
			spec := spec
			spec.Duration = d
			lead, followers := forkSeeds(spec, d == 2)
			for _, st := range forkStorages {
				spec.Storage = st.s
				label := fmt.Sprintf("%s %s %gs", spec.Name, st.name, d)
				build := func(seed int64) sim.Config {
					cfg, err := spec.Assemble(seed)
					if err != nil {
						t.Fatal(err)
					}
					return cfg
				}
				leadProfile := build(lead).Profile
				at := make([]float64, len(followers))
				for k, seed := range followers {
					at[k] = pv.SharedUntil(leadProfile, build(seed).Profile)
					if !(at[k] > 0) {
						t.Fatalf("%s: seed %d shares nothing with lead %d", label, seed, lead)
					}
				}
				at[0] = 0
				for _, s := range forkFamily(t, label, build, lead, followers, at) {
					totalShared += s
				}
				families++
			}
		}
	}
	if families == 0 || totalShared == 0 {
		t.Fatalf("%d families shared %v s: the oracle needs forks", families, totalShared)
	}
	t.Logf("%d families, %.1f simulated seconds shared", families, totalShared)
}

// forkSeeds picks, for a spec at its duration, eight seeds whose
// realisation has a cloud starting within the run, and a lead: a
// cloud-free seed when cloudFreeLead is set, else the clouded seed whose
// first cloud starts last.
func forkSeeds(spec scenario.Spec, cloudFreeLead bool) (lead int64, followers []int64) {
	clear := func(seed int64) float64 { return pv.ClearUntil(spec.Profile(seed, spec.Duration)) }
	var clouded []int64
	cloudFree := int64(0)
	for seed := int64(1); len(clouded) < 9 || (cloudFreeLead && cloudFree == 0); seed++ {
		switch {
		case clear(seed) < spec.Duration:
			if len(clouded) < 9 {
				clouded = append(clouded, seed)
			}
		case cloudFree == 0:
			cloudFree = seed
		}
	}
	if cloudFreeLead {
		return cloudFree, clouded[:8]
	}
	best := 0
	for k, seed := range clouded {
		if clear(seed) > clear(clouded[best]) {
			best = k
		}
	}
	return clouded[best], append(clouded[:best:best], clouded[best+1:]...)
}

// TestForkedRestartMatchesScratch forks runs that brown out and
// restart: cloud overlays on a blackout from 3 s to 6 s, with
// brownout restarts, so snapshots hold a dead board, an armed reboot
// and a recalibrated controller.
func TestForkedRestartMatchesScratch(t *testing.T) {
	base, err := pv.NewSteps(pv.Step{From: 0, G: 1000}, pv.Step{From: 3, G: 0}, pv.Step{From: 6, G: 1000})
	if err != nil {
		t.Fatal(err)
	}
	params := pv.CloudParams{Span: 10, MeanGap: 4, MeanDuration: 1,
		MinTransmission: 0.1, MaxTransmission: 0.4, EdgeSeconds: 0.3}
	spec := scenario.Spec{
		Name: "blackout-clouds", Duration: 10,
		Profile: func(seed int64, _ float64) pv.Profile { return pv.NewClouds(base, params, seed) },
		Restart: &scenario.RestartPolicy{RebootSeconds: 0.5},
	}
	build := func(seed int64) sim.Config {
		cfg, err := spec.Assemble(seed)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	lead, followers := forkSeeds(spec, false)
	leadProfile := build(lead).Profile
	at := make([]float64, len(followers))
	for k, seed := range followers {
		at[k] = pv.SharedUntil(leadProfile, build(seed).Profile)
	}
	res, err := sim.Run(build(lead))
	if err != nil {
		t.Fatal(err)
	}
	if res.Brownouts == 0 || res.Restarts == 0 {
		t.Fatalf("lead browned out %d times and restarted %d: the case needs both", res.Brownouts, res.Restarts)
	}
	latest := 0.0
	for _, st := range forkStorages {
		spec.Storage = st.s
		for _, s := range forkFamily(t, "blackout-clouds "+st.name, build, lead, followers, at) {
			latest = max(latest, s)
		}
	}
	if latest <= res.FirstBrownout {
		t.Fatalf("latest fork at %v s, before the lead's brownout at %v s", latest, res.FirstBrownout)
	}
}

// opaque is an observer of a type sim does not define.
type opaque struct{ n int }

func (o *opaque) Observe(*sim.Sample) { o.n++ }

// TestRunsThatCannotForkRunFromScratch pins the bypass: with series
// capture, a governor, or an observer sim cannot copy, RunLead returns
// no snapshots, so its followers run from scratch and report no shared
// prefix; and Resume refuses a snapshot a config cannot reproduce.
func TestRunsThatCannotForkRunFromScratch(t *testing.T) {
	spec := scenario.MustLookup("stress-clouds")
	spec.Duration = 2
	base := func() sim.Config {
		cfg, err := spec.Assemble(1)
		if err != nil {
			t.Fatal(err)
		}
		cfg.SkipSeries = true
		return cfg
	}
	for name, mutate := range map[string]func(*sim.Config){
		"series": func(c *sim.Config) { c.SkipSeries = false },
		"governor": func(c *sim.Config) {
			c.Controller, c.Governor = nil, governor.NewOndemand()
		},
		"foreign observer": func(c *sim.Config) { c.Observers = []sim.Observer{&opaque{}} },
	} {
		cfg := base()
		mutate(&cfg)
		res, snaps, err := runLead(cfg, []float64{1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if snaps[0] != nil || res.SharedPrefixSeconds != 0 {
			t.Fatalf("%s: %d snapshots, %v s shared", name, len(snaps), res.SharedPrefixSeconds)
		}
		cfg = base()
		mutate(&cfg)
		if res, err = sim.Resume(cfg, nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.SharedPrefixSeconds != 0 {
			t.Fatalf("%s: a run without a snapshot shared %v s", name, res.SharedPrefixSeconds)
		}
	}

	// A snapshot taken after the lead read its irradiance up to 1 s
	// does not fit a profile that differs before then, nor a config
	// with other settings or observers.
	_, snaps, err := runLead(base(), []float64{1})
	if err != nil || snaps[0] == nil {
		t.Fatalf("lead: %v, snapshot %v", err, snaps)
	}
	if res, err := sim.Resume(base(), snaps[0]); err != nil || !(res.SharedPrefixSeconds > 0) {
		t.Fatalf("the lead's own config resumed: %v, %v s shared", err, res)
	}
	for name, mutate := range map[string]func(*sim.Config){
		"dimmer sky":       func(c *sim.Config) { c.Profile = pv.Constant(999) },
		"longer run":       func(c *sim.Config) { c.Duration = 3 },
		"extra band":       func(c *sim.Config) { c.StabilityBands = []float64{0.05} },
		"foreign observer": func(c *sim.Config) { c.Observers = []sim.Observer{&opaque{}} },
		"series":           func(c *sim.Config) { c.SkipSeries = false },
	} {
		cfg := base()
		mutate(&cfg)
		if _, err := sim.Resume(cfg, snaps[0]); err == nil {
			t.Errorf("%s: Resume accepted a snapshot it cannot reproduce", name)
		}
	}
	if _, _, err := runLead(base(), []float64{math.NaN()}); err == nil {
		t.Error("RunLead accepted a NaN fork time")
	}
}
