package scenario

import (
	"math"
	"strings"
	"testing"

	"pnps/internal/buffer"
	"pnps/internal/core"
	"pnps/internal/pv"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/testutil"
)

// TestAssembleMatchesManualAssembly is the golden-equality test for the
// scenario layer: a Spec-assembled run must be bit-identical to the
// hand-assembled sim.Config the experiments used before the refactor.
func TestAssembleMatchesManualAssembly(t *testing.T) {
	const (
		seed     = int64(20170327)
		duration = 30.0
	)

	// Pre-refactor style: everything wired by hand.
	mpp, err := pv.SouthamptonArray().MaximumPowerPoint(pv.StandardIrradiance)
	if err != nil {
		t.Fatal(err)
	}
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	ctrl, err := core.New(core.DefaultParams(), mpp.V, soc.MinOPP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	manual, err := sim.Run(sim.Config{
		Array:       pv.SouthamptonArray(),
		Profile:     pv.StressClouds(seed, duration),
		Capacitance: 47e-3,
		InitialVC:   mpp.V,
		Platform:    plat,
		Controller:  ctrl,
		Duration:    duration,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Scenario layer: the registered stress scenario, shortened.
	spec := MustLookup("stress-clouds")
	spec.Duration = duration
	declarative, err := spec.Run(seed)
	if err != nil {
		t.Fatal(err)
	}

	testutil.RequireEqualResults(t, "scenario-vs-manual", declarative, manual)
	if manual.Interrupts == 0 {
		t.Fatal("golden scenario produced no interrupts; equality not exercised")
	}
}

// TestBenchScenario: the Fig. 11 bench-supply scenario assembles a
// voltage source with no PV array and survives its disturbance script.
func TestBenchScenario(t *testing.T) {
	spec := MustLookup("fig11-bench")
	cfg, err := spec.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Source == nil || cfg.Array != nil {
		t.Fatal("bench scenario should assemble a Source, not an Array")
	}
	if cfg.TargetVolts != 5.3 || cfg.InitialVC != 5.0 {
		t.Fatalf("bench voltages wrong: target %g, initial %g", cfg.TargetVolts, cfg.InitialVC)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.BrownedOut {
		t.Error("fig11 bench scenario browned out")
	}
}

// TestBootDefaults: the zero boot OPP resolves per control scheme.
func TestBootDefaults(t *testing.T) {
	base := Spec{Profile: FixedProfile(pv.Constant(800)), Duration: 1, SkipSeries: true}

	pn := base
	cfg, err := pn.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.Platform.CommittedOPP(); got != soc.MinOPP() {
		t.Errorf("power-neutral boot %v, want MinOPP", got)
	}
	if cfg.Controller == nil {
		t.Error("zero Control should assemble the power-neutral controller")
	}

	gov := base
	gov.Control = Governed("powersave")
	cfg, err = gov.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	want := soc.OPP{FreqIdx: 0, Config: soc.CoreConfig{Little: 4, Big: 4}}
	if got := cfg.Platform.CommittedOPP(); got != want {
		t.Errorf("governor boot %v, want %v", got, want)
	}
	if cfg.Governor == nil || cfg.Controller != nil {
		t.Error("governor control mis-assembled")
	}

	st := base
	st.Control = Uncontrolled()
	cfg, err = st.Assemble(0)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Controller != nil || cfg.Governor != nil {
		t.Error("static control should assemble neither controller nor governor")
	}
}

// TestSpecValidation rejects malformed specs.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no source", Spec{Duration: 1}, "exactly one"},
		{"both sources", Spec{
			Profile:  FixedProfile(pv.Constant(1)),
			Source:   func(int64, float64) (sim.Source, error) { return nil, nil },
			Duration: 1,
		}, "exactly one"},
		{"no duration", Spec{Profile: FixedProfile(pv.Constant(1))}, "duration"},
		{"bench no initial", Spec{
			Source:   func(int64, float64) (sim.Source, error) { return nil, nil },
			Duration: 1,
		}, "InitialVC"},
		{"governor unnamed", Spec{
			Profile: FixedProfile(pv.Constant(1)), Duration: 1,
			Control: Control{Kind: LinuxGovernor},
		}, "governor"},
		// Non-finite values slip past <= 0 and range comparisons.
		{"NaN duration", Spec{Profile: FixedProfile(pv.Constant(1)), Duration: math.NaN()}, "duration"},
		{"Inf duration", Spec{Profile: FixedProfile(pv.Constant(1)), Duration: math.Inf(1)}, "duration"},
		{"NaN utilisation", Spec{
			Profile: FixedProfile(pv.Constant(1)), Duration: 1, Utilisation: math.NaN(),
		}, "utilisation"},
		{"NaN initial", Spec{
			Profile: FixedProfile(pv.Constant(1)), Duration: 1, InitialVC: math.NaN(),
		}, "InitialVC"},
		{"Inf initial", Spec{
			Profile: FixedProfile(pv.Constant(1)), Duration: 1, InitialVC: math.Inf(1),
		}, "InitialVC"},
		{"negative initial", Spec{
			Profile: FixedProfile(pv.Constant(1)), Duration: 1, InitialVC: -1,
		}, "InitialVC"},
		{"NaN array", Spec{
			Profile: FixedProfile(pv.Constant(1)), Duration: 1,
			Array: &pv.Array{IscSTC: math.NaN(), I0: 1e-9, Rp: 100, Ns: 1, N: 1, TempK: 300},
		}, "IscSTC"},
	}
	for _, c := range cases {
		if _, err := c.spec.Assemble(0); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want containing %q", c.name, err, c.want)
		}
	}
}

// TestLightLoadRunTerminates is the regression test for runs at light
// load: the supply rests above the monitor's VMax, the clamped Vhigh
// threshold asserts again after every interrupt delay, and the replay
// loop used to service it forever without reaching the run's end.
func TestLightLoadRunTerminates(t *testing.T) {
	spec := MustLookup("stress-clouds")
	spec.Duration = 2
	spec.Utilisation = 0.2
	res, err := spec.Run(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interrupts == 0 {
		t.Fatal("light-load run serviced no interrupts; the clamped threshold was not exercised")
	}
	// A service begun before the end may finish one interrupt delay
	// (~105 µs) past it, but no further.
	if res.LifetimeSeconds > spec.Duration+1e-3 {
		t.Errorf("run lived %g s, past its %g s span", res.LifetimeSeconds, spec.Duration)
	}
}

// TestRegistry: built-ins are present, lookups copy, duplicates and
// anonymous specs are rejected.
func TestRegistry(t *testing.T) {
	for _, name := range []string{
		"steady-sun", "fig6-shadow", "stress-clouds", "stress-supercap",
		"stress-hybrid", "fig12-fullsun", "table2-harvest", "fig11-bench",
		"solar-day", "overcast-day",
	} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("built-in scenario %q missing", name)
		}
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names not sorted: %v", names)
		}
	}
	if err := Register(Spec{Profile: FixedProfile(pv.Constant(1)), Duration: 1}); err == nil {
		t.Error("anonymous spec accepted")
	}
	if err := Register(MustLookup("steady-sun")); err == nil {
		t.Error("duplicate registration accepted")
	}
	// Mutating a lookup result must not touch the registry.
	s := MustLookup("steady-sun")
	s.Duration = 1
	if MustLookup("steady-sun").Duration != 60 {
		t.Error("registry entry mutated through a lookup copy")
	}
}

// TestBuiltinsAssemble: every registered scenario assembles cleanly.
func TestBuiltinsAssemble(t *testing.T) {
	for _, spec := range List() {
		if _, err := spec.Assemble(1); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// TestMinCapacitanceGeneralises: the minimum surviving buffer through
// the Fig. 6 shadow is tens of millifarads for an ideal capacitor, and
// a leaky, resistive supercap family needs at least as much.
func TestMinCapacitanceGeneralises(t *testing.T) {
	spec := MustLookup("fig6-shadow")
	spec.Duration = 12

	ideal, err := MinCapacitance(spec, 0, IdealCaps(), 0.2e-3, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if ideal <= 0 || ideal >= 47e-3 {
		t.Errorf("ideal min capacitance %.1f mF outside (0, 47) mF", ideal*1e3)
	}
	bank := sim.NewSupercap(buffer.Supercap{
		Farads: 47e-3, ESROhms: 0.1, LeakOhms: 200, VMax: soc.MaxOperatingVolts,
	})
	lossy, err := MinCapacitance(spec, 0, SupercapsLike(bank), 0.2e-3, 10, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if lossy < ideal*(1-0.05) {
		t.Errorf("lossy supercap min %.2f mF beat ideal %.2f mF", lossy*1e3, ideal*1e3)
	}
}

// TestRealisationIdentity: a realised profile has an identity and a
// bench source has none, so bench tasks never share a run.
func TestRealisationIdentity(t *testing.T) {
	for name, want := range map[string]bool{"stress-clouds": true, "fig12-fullsun": true, "fig11-bench": false} {
		r, err := MustLookup(name).Realise(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := r.AppendIdentity(nil); ok != want {
			t.Errorf("%s: has identity %v, want %v", name, ok, want)
		}
	}
}
