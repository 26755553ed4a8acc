package sim

import (
	"math"
	"strings"
	"testing"

	"pnps/internal/core"
	"pnps/internal/governor"
	"pnps/internal/pv"
	"pnps/internal/soc"
)

func defaultController(t *testing.T, vc float64) *core.Controller {
	t.Helper()
	c, err := core.New(core.DefaultParams(), vc, soc.MinOPP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	arr := pv.SouthamptonArray()
	plat := soc.NewDefaultPlatform()
	base := Config{
		Array: arr, Profile: pv.Constant(1000), Capacitance: 47e-3,
		InitialVC: 5.3, Platform: plat, Duration: 1,
	}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no source", func(c *Config) { c.Array = nil }},
		{"no platform", func(c *Config) { c.Platform = nil }},
		{"zero capacitance", func(c *Config) { c.Capacitance = 0 }},
		{"zero duration", func(c *Config) { c.Duration = 0 }},
		{"zero initial VC", func(c *Config) { c.InitialVC = 0 }},
		// Non-finite values slip past <= 0 comparisons.
		{"NaN duration", func(c *Config) { c.Duration = math.NaN() }},
		{"Inf duration", func(c *Config) { c.Duration = math.Inf(1) }},
		{"NaN initial VC", func(c *Config) { c.InitialVC = math.NaN() }},
		{"Inf initial VC", func(c *Config) { c.InitialVC = math.Inf(1) }},
		{"NaN capacitance", func(c *Config) { c.Capacitance = math.NaN() }},
		{"Inf capacitance", func(c *Config) { c.Capacitance = math.Inf(1) }},
		{"NaN ideal storage", func(c *Config) { c.Capacitance, c.Storage = 0, IdealCap{Farads: math.NaN()} }},
		{"NaN array", func(c *Config) { a := *arr; a.Rp = math.NaN(); c.Array = &a }},
		{"both controllers", func(c *Config) {
			c.Controller = defaultController(t, 5.3)
			c.Governor = governor.Powersave{}
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
}

// TestConfigValidationTimingFields: the defaulted timing and voltage
// fields refuse NaN, ±Inf and negative values with a validation error
// (a NaN MaxStep used to run unbounded, a negative one to fail mid-run
// with a step-size underflow); zero still selects the default.
func TestConfigValidationTimingFields(t *testing.T) {
	fields := map[string]func(*Config) *float64{
		"MaxStep":           func(c *Config) *float64 { return &c.MaxStep },
		"RestartVolts":      func(c *Config) *float64 { return &c.RestartVolts },
		"RebootSeconds":     func(c *Config) *float64 { return &c.RebootSeconds },
		"RestartCooldown":   func(c *Config) *float64 { return &c.RestartCooldown },
		"AvailSamplePeriod": func(c *Config) *float64 { return &c.AvailSamplePeriod },
		"TargetVolts":       func(c *Config) *float64 { return &c.TargetVolts },
	}
	cfgFor := func() Config {
		plat := soc.NewDefaultPlatform()
		plat.Reset(0, soc.MinOPP())
		return Config{
			Array: pv.SouthamptonArray(), Profile: pv.Constant(1000), Capacitance: 47e-3,
			InitialVC: 5.3, Platform: plat, Duration: 1, BrownoutRestart: true,
		}
	}
	for name, field := range fields {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -0.25} {
			cfg := cfgFor()
			*field(&cfg) = bad
			_, err := Run(cfg)
			if err == nil || !strings.Contains(err.Error(), name+" must be non-negative and finite") {
				t.Errorf("%s = %g: err = %v, want a validation error naming the field", name, bad, err)
			}
		}
		for _, ok := range []float64{0, 0.5} {
			cfg := cfgFor()
			*field(&cfg) = ok
			if _, err := Run(cfg); err != nil {
				t.Errorf("%s = %g refused: %v", name, ok, err)
			}
		}
	}
}

// TestConfigValidationNilObserver: a nil entry in Config.Observers is a
// validation error naming its index (it used to panic mid-run, on the
// first sample dispatch).
func TestConfigValidationNilObserver(t *testing.T) {
	env := func() Observer { return &EnvelopeObserver{Channel: ChanVC} }
	cases := []struct {
		name      string
		observers []Observer
		want      string // "" means the run must succeed
	}{
		{"lone nil", []Observer{nil}, "Config.Observers[0] is nil"},
		{"nil after a valid one", []Observer{env(), nil}, "Config.Observers[1] is nil"},
		{"nil before a valid one", []Observer{nil, env()}, "Config.Observers[0] is nil"},
		{"all valid", []Observer{env(), env()}, ""},
		{"none", nil, ""},
	}
	for _, tc := range cases {
		plat := soc.NewDefaultPlatform()
		plat.Reset(0, soc.MinOPP())
		_, err := Run(Config{
			Array: pv.SouthamptonArray(), Profile: pv.Constant(1000), Capacitance: 47e-3,
			InitialVC: 5.3, Platform: plat, Duration: 1, Observers: tc.observers,
		})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: err = %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

func TestStaticRunReachesEquilibrium(t *testing.T) {
	// A static light load under full sun settles at the PV equilibrium
	// where the array delivers exactly the board power.
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
		Capacitance: 47e-3, InitialVC: 5.0, Platform: plat, Duration: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownedOut {
		t.Fatal("light static load browned out under full sun")
	}
	// Equilibrium: P_array(Vfinal) ≈ board power.
	arr := pv.SouthamptonArray()
	pArr, err := arr.PowerAt(res.FinalVC, 1000)
	if err != nil {
		t.Fatal(err)
	}
	pBoard := plat.PowerDraw()
	if math.Abs(pArr-pBoard) > 0.05*pBoard {
		t.Errorf("array output %.3f W vs board %.3f W at Vc=%.3f — not an equilibrium",
			pArr, pBoard, res.FinalVC)
	}
}

func TestStaticOverloadBrownsOut(t *testing.T) {
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MaxOPP()) // 7 W load
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(1000), // 5.6 W available
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat, Duration: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BrownedOut {
		t.Fatal("7 W load survived a 5.6 W harvest")
	}
	if res.FirstBrownout <= 0 || res.FirstBrownout > 5 {
		t.Errorf("brownout at %.2f s, expected within seconds", res.FirstBrownout)
	}
	if res.LifetimeSeconds >= 30 {
		t.Error("lifetime not truncated at brownout")
	}
	// The board stays dead without restart; Vc recovers to open circuit.
	if res.FinalVC < 6.0 {
		t.Errorf("final Vc %.2f, want open-circuit recovery", res.FinalVC)
	}
}

func TestControllerAvoidsBrownoutOnShadow(t *testing.T) {
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	profile := pv.Shadow{Base: 1000, Depth: 0.6, Start: 10, Duration: 4, Edge: 0.5}
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: profile,
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
		Controller: defaultController(t, 5.3), Duration: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownedOut {
		t.Errorf("controller failed to ride through a survivable shadow (first brownout %.2f s)",
			res.FirstBrownout)
	}
	if res.Interrupts == 0 {
		t.Error("no interrupts serviced")
	}
	if res.CPUOverhead <= 0 || res.CPUOverhead > 0.05 {
		t.Errorf("CPU overhead %.4f implausible", res.CPUOverhead)
	}
}

func TestBrownoutRestartResumesWork(t *testing.T) {
	// Darkness kills the board; when the sun returns the platform
	// reboots and continues accruing work on top of the old total.
	steps, err := pv.NewSteps(
		pv.Step{From: 0, G: 1000},
		pv.Step{From: 10, G: 0},    // lights out
		pv.Step{From: 25, G: 1000}, // sun returns
	)
	if err != nil {
		t.Fatal(err)
	}
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: steps,
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
		Controller:      defaultController(t, 5.3),
		Duration:        60,
		BrownoutRestart: true,
		RebootSeconds:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Brownouts < 1 {
		t.Fatal("expected a brownout during darkness")
	}
	if res.Restarts < 1 {
		t.Fatal("expected a restart after recovery")
	}
	// Work done before the blackout must be preserved.
	preBlackout := 10 * plat.Perf.InstructionsPerSecond(soc.MinOPP()) * 0.5
	if res.Instructions < preBlackout {
		t.Errorf("instructions %.3g suspiciously low — pre-brownout work lost?", res.Instructions)
	}
	if !plat.Alive() {
		t.Error("platform should be alive again at the end")
	}
}

func TestNoRestartWithoutFlag(t *testing.T) {
	steps, err := pv.NewSteps(
		pv.Step{From: 0, G: 1000},
		pv.Step{From: 5, G: 0},
		pv.Step{From: 15, G: 1000},
	)
	if err != nil {
		t.Fatal(err)
	}
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: steps,
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
		Controller: defaultController(t, 5.3), Duration: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Restarts != 0 {
		t.Errorf("restarted %d times without the flag", res.Restarts)
	}
	if plat.Alive() {
		t.Error("platform should stay dead")
	}
}

func TestGovernorModeTicks(t *testing.T) {
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.OPP{FreqIdx: 0, Config: soc.CoreConfig{Little: 4, Big: 4}})
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
		Governor: governor.Powersave{}, Duration: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GovernorTicks < 40 { // 100 ms period over 5 s
		t.Errorf("only %d governor ticks", res.GovernorTicks)
	}
	if res.BrownedOut {
		t.Error("powersave under full sun should survive")
	}
	if res.Interrupts != 0 {
		t.Error("governor mode should service no threshold interrupts")
	}
}

func TestPerformanceGovernorDiesFast(t *testing.T) {
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.OPP{FreqIdx: 0, Config: soc.CoreConfig{Little: 4, Big: 4}})
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(600),
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
		Governor: governor.Performance{}, Duration: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BrownedOut || res.FirstBrownout > 2 {
		t.Errorf("performance governor survived %.2f s on a 3.4 W harvest", res.FirstBrownout)
	}
}

func TestVoltageSourceSetpointTracking(t *testing.T) {
	src, err := NewVoltageSource(0.3,
		VPoint{T: 0, V: 5.0}, VPoint{T: 10, V: 5.0}, VPoint{T: 20, V: 4.5})
	if err != nil {
		t.Fatal(err)
	}
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	res, err := Run(Config{
		Source: src, Capacitance: 47e-3, InitialVC: 5.0,
		Platform: plat, Duration: 30, TargetVolts: 5.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Vc must end near the final setpoint minus the IR drop.
	drop := plat.PowerDraw() / res.FinalVC * 0.3
	want := 4.5 - drop
	if math.Abs(res.FinalVC-want) > 0.05 {
		t.Errorf("final Vc %.3f, want ≈%.3f", res.FinalVC, want)
	}
	// Governor/PV extras must be absent.
	if res.PowerAvailable.Len() != 0 {
		t.Error("voltage source recorded PV available power")
	}
}

func TestVoltageSourceValidation(t *testing.T) {
	if _, err := NewVoltageSource(0); err == nil {
		t.Error("zero series resistance accepted")
	}
	if _, err := NewVoltageSource(1); err == nil {
		t.Error("no waypoints accepted")
	}
	src, err := NewVoltageSource(1, VPoint{T: 10, V: 5}, VPoint{T: 0, V: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Sorted on construction; interpolation and clamping.
	if src.Setpoint(-1) != 4 || src.Setpoint(99) != 5 {
		t.Error("setpoint clamping broken")
	}
	if got := src.Setpoint(5); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("midpoint %.3f, want 4.5", got)
	}
}

func TestSeriesRecording(t *testing.T) {
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
		Controller: defaultController(t, 5.3), Duration: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []interface {
		Len() int
	}{res.VC, res.PowerConsumed, res.FreqGHz, res.LittleCores, res.BigCores, res.TotalCores} {
		if s.Len() < 10 {
			t.Errorf("series under-sampled: %d points", s.Len())
		}
	}
	// Times must be non-decreasing in the Vc trace.
	times := res.VC.Times()
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("VC trace time goes backwards at %d", i)
		}
	}
}

func TestSkipSeries(t *testing.T) {
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
		Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
		Duration: 5, SkipSeries: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.VC != nil {
		t.Error("series recorded despite SkipSeries")
	}
	// No series and no stability band: the measurement does not exist,
	// and the sentinel must be NaN — not a degenerate 0 that could be
	// mistaken for "0% stable".
	if s := res.StabilityWithin(0.05); !math.IsNaN(s) {
		t.Errorf("stability without series or matching band should be NaN, got %g", s)
	}
}

func TestMonitorQuantisationRespected(t *testing.T) {
	// The armed thresholds must sit on the monitor's quantisation grid,
	// not at the controller's ideal values.
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	ctrl := defaultController(t, 5.313) // deliberately off-grid
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
		Capacitance: 47e-3, InitialVC: 5.313, Platform: plat,
		Controller: ctrl, Duration: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupts == 0 {
		t.Error("expected interrupts")
	}
	if res.MonitorPowerWatts <= 0 {
		t.Error("monitor power not reported")
	}
}

func TestEnergyConservation(t *testing.T) {
	// Energy book-keeping: harvested-in = consumed + capacitor delta,
	// within integration tolerance. Uses a static load so the power
	// traces are smooth.
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.OPP{FreqIdx: 2, Config: soc.CoreConfig{Little: 4}})
	const c = 47e-3
	res, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(800),
		Capacitance: c, InitialVC: 5.0, Platform: plat, Duration: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	eCons, err := res.PowerConsumed.Integral()
	if err != nil {
		t.Fatal(err)
	}
	// Harvested energy: integrate array output along the recorded Vc.
	arr := pv.SouthamptonArray()
	times := res.VC.Times()
	vals := res.VC.Values()
	var eHarv float64
	for i := 0; i+1 < len(times); i++ {
		p, err := arr.PowerAt(vals[i], 800)
		if err != nil {
			t.Fatal(err)
		}
		eHarv += p * (times[i+1] - times[i])
	}
	dCap := 0.5 * c * (res.FinalVC*res.FinalVC - 5.0*5.0)
	imbalance := math.Abs(eHarv - eCons - dCap)
	if imbalance > 0.05*eCons {
		t.Errorf("energy imbalance %.3f J of %.3f J consumed", imbalance, eCons)
	}
}
