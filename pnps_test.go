package pnps

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"pnps/internal/soc"
)

// TestFacadeEndToEnd drives the whole stack through the public API only —
// the same path the examples use.
func TestFacadeEndToEnd(t *testing.T) {
	platform := NewPlatform()
	platform.Reset(0, MinOPP())
	controller, err := NewController(DefaultControllerParams(), 5.3, MinOPP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	result, err := Simulate(SimConfig{
		Array:       NewPVArray(),
		Profile:     ConstantIrradiance(1000),
		Capacitance: 47e-3,
		InitialVC:   5.3,
		Platform:    platform,
		Controller:  controller,
		Duration:    20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if result.BrownedOut {
		t.Error("facade run browned out under full sun")
	}
	if result.Instructions <= 0 {
		t.Error("no work done")
	}
}

func TestFacadeProfiles(t *testing.T) {
	if ConstantIrradiance(700).Irradiance(5) != 700 {
		t.Error("ConstantIrradiance wrong")
	}
	day := SolarDayProfile()
	if day.Irradiance(13*3600) <= 0 {
		t.Error("SolarDayProfile dark at noon")
	}
	cloudy := WithPartialClouds(day, 24*3600, 5)
	if cloudy.Irradiance(13*3600) < 0 {
		t.Error("cloudy profile negative")
	}
	sh := ShadowEvent(0.5, 10, 5)
	if sh.Irradiance(12) >= sh.Irradiance(0) {
		t.Error("shadow event does not attenuate")
	}
}

func TestFacadeGovernors(t *testing.T) {
	g, err := LinuxGovernor("powersave")
	if err != nil {
		t.Fatal(err)
	}
	if g.Name() != "powersave" {
		t.Error("governor name wrong")
	}
	if _, err := LinuxGovernor("bogus"); err == nil {
		t.Error("unknown governor accepted")
	}
}

func TestFacadeBounds(t *testing.T) {
	if MinOPP().Config.TotalCores() != 1 || MaxOPP().Config.TotalCores() != 8 {
		t.Error("OPP bounds wrong")
	}
	if MinOPP() != soc.MinOPP() {
		t.Error("facade MinOPP diverged from soc")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 14 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	rep, err := RunExperiment("fig4", 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "fig4" {
		t.Error("wrong report")
	}
	if _, err := RunExperiment("missing", 1); err == nil {
		t.Error("unknown id accepted")
	}
}

// TestFacadeScenarioErrors pins the facade's error paths: unknown
// scenario names surface as UnknownScenarioError (matchable with
// errors.As), a bad governor name fails at run time with the offending
// name in the message, and an inverted capacitance bracket is rejected
// before any simulation runs.
func TestFacadeScenarioErrors(t *testing.T) {
	_, err := RunScenario("no-such-scenario", 1)
	if err == nil {
		t.Fatal("unknown scenario accepted")
	}
	var unknown *UnknownScenarioError
	if !errors.As(err, &unknown) {
		t.Fatalf("error %T %v, want *UnknownScenarioError", err, err)
	}
	if unknown.Name != "no-such-scenario" {
		t.Errorf("UnknownScenarioError.Name = %q", unknown.Name)
	}
	if !strings.Contains(err.Error(), "no-such-scenario") {
		t.Errorf("error %q does not name the missing scenario", err)
	}

	sc, ok := LookupScenario("steady-sun")
	if !ok {
		t.Fatal("steady-sun missing")
	}
	sc.Control = GovernedBy("no-such-governor")
	if _, err := sc.Run(1); err == nil ||
		!strings.Contains(err.Error(), "no-such-governor") {
		t.Errorf("bad governor error = %v, want it to name the governor", err)
	}

	mk := func(farads float64) Storage { return IdealCapacitor{Farads: farads} }
	sc, _ = LookupScenario("steady-sun")
	if _, err := MinScenarioCapacitance(sc, 1, mk, 1e-1, 1e-3, 0.05); err == nil ||
		!strings.Contains(err.Error(), "bracket") {
		t.Errorf("inverted [lo, hi] error = %v, want bracket rejection", err)
	}
}

// TestFacadeStudy drives a small matrix through the public Study
// surface: typed axes, paired seeds, cells, marginals and checkpoint
// sharding all reachable without importing internals.
func TestFacadeStudy(t *testing.T) {
	base, ok := LookupScenario("stress-clouds")
	if !ok {
		t.Fatal("stress-clouds missing")
	}
	base.Duration = 10
	st := Study{
		Base: base,
		Axes: []StudyAxis{
			NewStudyAxis("storage",
				StudyStorage("ideal", IdealCapacitor{Farads: 47e-3}),
				StudyStorage("hybrid", HybridBuffer{
					NodeFarads: 10e-3, ReservoirFarads: 1,
					DiodeDropVolts: 0.35, DiodeOhms: 0.2,
					ChargeOhms: 10, LeakOhms: 20000,
				})),
			NewStudyAxis("control", StudyPowerNeutral(), StudyGovernor("ondemand")),
		},
		Reps: 2, Seed: 7, SeedMode: SeedPerRep,
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Cells) != 4 || out.Summary.Runs != 8 {
		t.Fatalf("matrix shape: %d cells, %d runs", len(out.Cells), out.Summary.Runs)
	}
	if len(out.Marginals) != 4 {
		t.Fatalf("%d marginals", len(out.Marginals))
	}

	a, err := st.RunShard(context.Background(), 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.RunShard(context.Background(), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeStudyCheckpoints(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := merged.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadStudyCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Outcome(restored)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary != out.Summary {
		t.Fatalf("sharded facade study diverged:\n%+v\nvs\n%+v", got.Summary, out.Summary)
	}
}

func TestFacadeBatch(t *testing.T) {
	ctx := context.Background()

	reps, err := RunAllExperiments(ctx, RunAllOptions{IDs: []string{"fig4", "fig10"}, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 || reps[0].ID != "fig4" || reps[1].ID != "fig10" {
		t.Error("RunAllExperiments ordering broken")
	}

	out, err := BatchMap(ctx, []int{1, 2, 3, 4},
		func(_ context.Context, n int) (string, error) { return strings.Repeat("x", n), nil },
		BatchOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range out {
		if len(s) != i+1 {
			t.Fatalf("BatchMap out[%d] = %q", i, s)
		}
	}

	if BatchSeed(7, 0) == BatchSeed(7, 1) || BatchSeed(7, 0) != BatchSeed(7, 0) {
		t.Error("BatchSeed not decorrelated/deterministic")
	}

	pts, err := RunParamSweep(ctx, SweepOptions{
		VWidths: []float64{0.144}, VQs: []float64{0.0479},
		Alphas: []float64{0.12}, Betas: []float64{0.479},
		Duration: 10, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Params.VWidth != 0.144 {
		t.Errorf("RunParamSweep points: %+v", pts)
	}
}
