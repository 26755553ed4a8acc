package pnps

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per artefact; pnsim -list and
// experiments.IDs() give the index) and reports
// the headline quantity of each as a custom benchmark metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation in one run. Experiment benchmarks
// typically execute one iteration (each is a whole scenario simulation);
// the micro-benchmarks at the bottom characterise the hot paths.

import (
	"context"
	"fmt"
	"testing"

	"pnps/internal/batch"
	"pnps/internal/core"
	"pnps/internal/experiments"
	"pnps/internal/governor"
	"pnps/internal/ode"
	"pnps/internal/pv"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/testutil"
	"pnps/internal/workload"
)

// benchExperiment runs a registered experiment b.N times and reports the
// named metrics from the final report.
func benchExperiment(b *testing.B, id string, metrics map[string]string) {
	b.Helper()
	var rep *experiments.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = experiments.Run(id, experiments.DefaultSeed)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
	for name, unit := range metrics {
		for _, m := range rep.Metrics {
			if m.Name == name {
				b.ReportMetric(m.Value, unit)
			}
		}
	}
}

func BenchmarkFig01SolarDayTrace(b *testing.B) {
	benchExperiment(b, "fig1", map[string]string{
		"peak power output": "peakW",
	})
}

func BenchmarkFig03TransientResponse(b *testing.B) {
	benchExperiment(b, "fig3", map[string]string{
		"lifetime extension factor": "lifex",
	})
}

func BenchmarkFig04PowerVsFrequency(b *testing.B) {
	benchExperiment(b, "fig4", map[string]string{
		"max config/frequency power": "maxW",
	})
}

func BenchmarkFig06ShadowingSimulation(b *testing.B) {
	benchExperiment(b, "fig6", map[string]string{
		"min Vc with control": "minVc",
	})
}

func BenchmarkFig07PerformanceVsPower(b *testing.B) {
	benchExperiment(b, "fig7", map[string]string{
		"max FPS (8 cores @1.4 GHz)": "maxFPS",
	})
}

func BenchmarkFig10TransitionLatency(b *testing.B) {
	benchExperiment(b, "fig10", map[string]string{
		"slowest hot-plug": "slowMs",
		"fastest hot-plug": "fastMs",
	})
}

func BenchmarkTable1RequiredCapacitance(b *testing.B) {
	benchExperiment(b, "table1", map[string]string{
		"(b) required capacitance": "mF",
		"(a)/(b) charge ratio":     "ratio",
	})
}

func BenchmarkFig11ControlledSupply(b *testing.B) {
	benchExperiment(b, "fig11", map[string]string{
		"DVFS:hot-plug ratio": "ratio",
	})
}

func BenchmarkFig12VoltageStabilisation(b *testing.B) {
	benchExperiment(b, "fig12", map[string]string{
		"time within ±5% of target": "pct5",
	})
}

func BenchmarkFig13MPPTracking(b *testing.B) {
	benchExperiment(b, "fig13", map[string]string{
		"|modal − MPP voltage|": "dV",
	})
}

func BenchmarkFig14PowerNeutrality(b *testing.B) {
	benchExperiment(b, "fig14", map[string]string{
		"utilisation of harvest (energy)": "pct",
	})
}

func BenchmarkTable2GovernorComparison(b *testing.B) {
	benchExperiment(b, "table2", map[string]string{
		"instruction gain vs powersave": "gainPct",
	})
}

func BenchmarkFig15ControlOverhead(b *testing.B) {
	benchExperiment(b, "fig15", map[string]string{
		"controller CPU overhead": "pct",
	})
}

func BenchmarkParamSweep(b *testing.B) {
	// A reduced grid keeps one iteration in the seconds range while
	// exercising the full sweep machinery (cmd/pnsweep runs the paper
	// grid).
	for i := 0; i < b.N; i++ {
		pts, err := experiments.RunSweep(experiments.SweepOptions{
			VWidths:  []float64{0.144, 0.28},
			VQs:      []float64{0.0479, 0.08},
			Alphas:   []float64{0.12},
			Betas:    []float64{0.479},
			Duration: 120,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(pts[0].Stability*100, "bestPct5")
		}
	}
}

func BenchmarkAblationSemantics(b *testing.B) {
	benchExperiment(b, "ablation-semantics", map[string]string{
		"flowchart stability": "flowPct",
		"eq2 stability":       "eq2Pct",
	})
}

func BenchmarkAblationOrder(b *testing.B) {
	benchExperiment(b, "ablation-order", map[string]string{
		"min Vc, core-first":      "coreMinVc",
		"min Vc, frequency-first": "freqMinVc",
	})
}

func BenchmarkExtMPPTComparison(b *testing.B) {
	benchExperiment(b, "mppt", map[string]string{
		"implicit power-neutral efficiency": "pct",
	})
}

func BenchmarkExtPredictiveComparison(b *testing.B) {
	benchExperiment(b, "predictive", map[string]string{
		"predictive lifetime under shadowing": "sec",
	})
}

func BenchmarkExtBufferComparison(b *testing.B) {
	benchExperiment(b, "buffers", map[string]string{
		"power-neutral min capacitance": "mF",
		"buffer reduction vs static":    "x",
	})
}

// --- batch engine: serial-vs-parallel scaling ---

// BenchmarkRunSweepWorkers scores the paper's full default (Vwidth, Vq,
// α, β) grid at 1, 2, 4 and GOMAXPROCS workers (shortened per-point
// scenarios keep an iteration tractable; the grid shape is the paper's).
// Compare the workers=1 and workers=4 wall-clock times for the speedup
// of the batch engine; on ≥4 hardware threads the parallel run is
// expected ≥2× faster, with identical output by construction.
func BenchmarkRunSweepWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=GOMAXPROCS"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := experiments.RunSweep(experiments.SweepOptions{
					Duration: 10, // default grids, shortened scenario
					Workers:  workers,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(float64(len(pts)), "gridPts")
				}
			}
		})
	}
}

// BenchmarkRunAllExperiments regenerates the fast paper artefacts
// serially and in parallel through the experiment-level worker pool.
func BenchmarkRunAllExperiments(b *testing.B) {
	ids := []string{"fig3", "fig4", "fig6", "fig7", "fig10", "table1"}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunAll(context.Background(), experiments.RunAllOptions{
					IDs: ids, Workers: workers,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchOverhead measures the engine's per-job cost with no-op
// jobs — the fixed tax the pool adds on top of real simulation work.
func BenchmarkBatchOverhead(b *testing.B) {
	jobs := make([]int, 1024)
	for i := range jobs {
		jobs[i] = i
	}
	job := func(_ context.Context, i int) (int, error) { return i, nil }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := batch.Map(context.Background(), jobs, job, batch.Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(jobs)), "jobs/op")
}

// --- micro-benchmarks of the hot paths ---

func BenchmarkPVCurrentSolve(b *testing.B) {
	arr := pv.SouthamptonArray()
	var acc float64
	for i := 0; i < b.N; i++ {
		v := 4.0 + float64(i%200)*0.01
		iout, err := arr.CurrentAt(v, 850)
		if err != nil {
			b.Fatal(err)
		}
		acc += iout
	}
	_ = acc
}

func BenchmarkPVMaximumPowerPoint(b *testing.B) {
	arr := pv.SouthamptonArray()
	for i := 0; i < b.N; i++ {
		if _, err := arr.MaximumPowerPoint(600 + float64(i%5)*100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioAssemble is the assembly layer on its own: one
// Spec.Assemble of the stress-clouds scenario per op (profile realised
// from the seed, fresh platform and controller, InitialVC defaulted to
// the memoised standard-irradiance MPP).
func BenchmarkScenarioAssemble(b *testing.B) {
	spec := scenario.MustLookup("stress-clouds")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Assemble(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerResponse(b *testing.B) {
	p := core.DefaultParams()
	opp := soc.OPP{FreqIdx: 4, Config: soc.CoreConfig{Little: 4, Big: 2}}
	for i := 0; i < b.N; i++ {
		which := core.CrossLow
		if i%2 == 0 {
			which = core.CrossHigh
		}
		core.Response(p, which, 0.05+float64(i%10)*0.01, opp)
	}
}

func BenchmarkPlatformTransition(b *testing.B) {
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	t := 0.0
	for i := 0; i < b.N; i++ {
		target := soc.MaxOPP()
		if i%2 == 1 {
			target = soc.MinOPP()
		}
		done, err := plat.RequestOPP(target, t, soc.CoreFirst)
		if err != nil {
			b.Fatal(err)
		}
		if err := plat.Advance(done); err != nil {
			b.Fatal(err)
		}
		t = done
	}
}

func BenchmarkRK23CircuitSecond(b *testing.B) {
	// One simulated second of the supply node under a static load.
	arr := pv.SouthamptonArray()
	rhs := func(_ float64, y, dydt []float64) {
		i, _ := arr.CurrentAt(y[0], 900)
		dydt[0] = (i - 2.5/y[0]) / 47e-3
	}
	for i := 0; i < b.N; i++ {
		y := []float64{5.3}
		if _, err := ode.RK23(rhs, 0, 1, y, ode.Options{MaxStep: 0.25}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntegratorSegment measures the per-segment cost of the
// ODE layer the way the sim engine drives it: thousands of short
// continuation segments. "reused" holds one Integrator (the engine's
// configuration, zero steady-state allocations); "fresh" calls the RK23
// wrapper, which allocates its stage buffers every segment.
func BenchmarkIntegratorSegment(b *testing.B) {
	arr := pv.SouthamptonArray()
	sol := pv.NewSolver(arr)
	rhs := func(_ float64, y, dydt []float64) {
		i, _ := sol.CurrentAt(y[0], 900)
		dydt[0] = (i - 2.5/y[0]) / 47e-3
	}
	opts := ode.Options{MaxStep: 0.25, RTol: 1e-6, ATol: 1e-7, InitialStep: 0.05}
	b.Run("reused", func(b *testing.B) {
		integ := ode.NewIntegrator()
		y := []float64{5.3}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := float64(i) * 0.05
			if _, err := integ.Integrate(rhs, t0, t0+0.05, y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		y := []float64{5.3}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t0 := float64(i) * 0.05
			if _, err := ode.RK23(rhs, t0, t0+0.05, y, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkPVSolverCurrentSolve is the warm-started counterpart of
// BenchmarkPVCurrentSolve: the same voltage ladder through the per-run
// accelerated solver.
func BenchmarkPVSolverCurrentSolve(b *testing.B) {
	sol := pv.NewSolver(pv.SouthamptonArray())
	var acc float64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := 4.0 + float64(i%200)*0.01
		iout, err := sol.CurrentAt(v, 850)
		if err != nil {
			b.Fatal(err)
		}
		acc += iout
	}
	_ = acc
}

// walkRecorder is a supply source that records every (v, g) the
// supply-node RHS solves, solving each with its own warm-started Solver
// so the recorded walk is the one a PV-sourced run makes.
type walkRecorder struct {
	sol     *pv.Solver
	profile pv.Profile
	v, g    []float64
}

func (r *walkRecorder) Current(t, v float64) (float64, error) {
	g := r.profile.Irradiance(t)
	r.v, r.g = append(r.v, v), append(r.g, g)
	return r.sol.CurrentAt(v, g)
}

var pvCurrentSink float64

// BenchmarkPVCurrentAt is the PV Newton layer on its own. One op replays,
// through one warm-started pv.Solver, the (v, g) walk a 10 s
// stress-clouds run on the hybrid buffer makes: one CurrentAt per RHS
// evaluation, in order. ns/solve and iters/solve normalise per call.
func BenchmarkPVCurrentAt(b *testing.B) {
	spec := scenario.MustLookup("stress-hybrid")
	spec.Duration, spec.SkipSeries = 10, true
	cfg, err := spec.Assemble(1)
	if err != nil {
		b.Fatal(err)
	}
	rec := &walkRecorder{sol: pv.NewSolver(cfg.Array), profile: cfg.Profile}
	cfg.Source = rec
	if _, err := sim.Run(cfg); err != nil {
		b.Fatal(err)
	}
	sol := pv.NewSolver(cfg.Array)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for k, v := range rec.v {
			// The engine counts a failed solve as zero harvest; the walk
			// holds the few the run made, so errors are part of the work.
			pvCurrentSink, _ = sol.CurrentAt(v, rec.g[k])
		}
	}
	b.StopTimer()
	solves := float64(b.N * len(rec.v))
	iters, _ := sol.Work()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/solves, "ns/solve")
	b.ReportMetric(float64(iters)/solves, "iters/solve")
}

// BenchmarkPVSolverAvailablePower exercises the fast Voc + MPP path on a
// rotating irradiance set (after the first lap every query is memoised).
func BenchmarkPVSolverAvailablePower(b *testing.B) {
	sol := pv.NewSolver(pv.SouthamptonArray())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sol.AvailablePower(600 + float64(i%5)*100); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimClosedLoopSecond(b *testing.B) {
	// One simulated second of the full closed loop (PV + monitor +
	// controller + platform), amortised: each iteration runs a fresh
	// 1-second scenario.
	for i := 0; i < b.N; i++ {
		plat := soc.NewDefaultPlatform()
		plat.Reset(0, soc.MinOPP())
		ctrl, err := core.New(core.DefaultParams(), 5.3, soc.MinOPP(), 0)
		if err != nil {
			b.Fatal(err)
		}
		_, err = sim.Run(sim.Config{
			Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
			Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
			Controller: ctrl, Duration: 1, SkipSeries: true,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimControllerMinute is the representative end-to-end hot-path
// benchmark: one simulated minute of the full power-neutral closed loop
// (PV array + threshold monitor + controller + platform) under a cloud-
// shadowed sky, with full time-series capture including the periodic
// available-power MPP sampling. This is the per-run path every sweep
// point and scenario experiment pays.
func BenchmarkSimControllerMinute(b *testing.B) {
	profile := pv.NewClouds(pv.Constant(900), pv.PartialSun(60), 42)
	b.ReportAllocs()
	b.ResetTimer()
	var work sim.SolverCounters
	for i := 0; i < b.N; i++ {
		plat := soc.NewDefaultPlatform()
		plat.Reset(0, soc.MinOPP())
		ctrl, err := core.New(core.DefaultParams(), 5.3, soc.MinOPP(), 0)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Array: pv.SouthamptonArray(), Profile: profile,
			Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
			Controller: ctrl, Duration: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		work.Add(res.Solver)
	}
	testutil.ReportSolverWork(b, work, b.N)
}

// BenchmarkSimGovernorMinute is the baseline-governor counterpart of
// BenchmarkSimControllerMinute: the same supply and platform driven by a
// periodically sampling Linux governor instead of threshold interrupts.
func BenchmarkSimGovernorMinute(b *testing.B) {
	profile := pv.NewClouds(pv.Constant(900), pv.PartialSun(60), 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plat := soc.NewDefaultPlatform()
		plat.Reset(0, soc.MinOPP())
		if _, err := sim.Run(sim.Config{
			Array: pv.SouthamptonArray(), Profile: profile,
			Capacitance: 47e-3, InitialVC: 5.3, Platform: plat,
			Governor: governor.NewOndemand(), Duration: 60,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRaytraceScanline(b *testing.B) {
	// The paper's benchmark application: smallpt at 5 samples/pixel
	// (one 64-pixel scanline per iteration).
	sc := workload.CornellScene()
	for i := 0; i < b.N; i++ {
		_, err := sc.Render(workload.RenderOptions{
			Width: 64, Height: 1, SamplesPerPixel: 5, Seed: int64(i), Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}
