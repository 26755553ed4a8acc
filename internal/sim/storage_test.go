package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"pnps/internal/buffer"
	"pnps/internal/core"
	"pnps/internal/ode"
	"pnps/internal/pv"
	"pnps/internal/soc"
)

func storageControllerConfig(t *testing.T, st Storage, duration float64) Config {
	t.Helper()
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	ctrl, err := core.New(core.DefaultParams(), 5.3, soc.MinOPP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Array: pv.SouthamptonArray(), Profile: pv.StressClouds(7, duration),
		Storage: st, InitialVC: 5.3, Platform: plat,
		Controller: ctrl, Duration: duration,
	}
}

// TestSupercapDegeneratesToIdealCap is the equivalence regression test
// for the pluggable storage node: a Supercap with ESR → 0 and leakage →
// ∞ must reproduce the ideal-capacitor VC trace bit for bit on a
// representative controller run — the Storage interface is a
// generalisation, not a model change.
func TestSupercapDegeneratesToIdealCap(t *testing.T) {
	const duration = 30.0
	ideal, err := Run(storageControllerConfig(t, IdealCap{Farads: 47e-3}, duration))
	if err != nil {
		t.Fatal(err)
	}
	degenerate := NewSupercap(buffer.Supercap{
		Farads: 47e-3, ESROhms: 0, LeakOhms: math.Inf(1), VMax: soc.MaxOperatingVolts,
	})
	cap, err := Run(storageControllerConfig(t, degenerate, duration))
	if err != nil {
		t.Fatal(err)
	}

	if ideal.Interrupts != cap.Interrupts || ideal.Brownouts != cap.Brownouts ||
		ideal.Instructions != cap.Instructions || ideal.FinalVC != cap.FinalVC {
		t.Fatalf("scalar results diverged: interrupts %d vs %d, brownouts %d vs %d, instr %g vs %g, finalVC %g vs %g",
			ideal.Interrupts, cap.Interrupts, ideal.Brownouts, cap.Brownouts,
			ideal.Instructions, cap.Instructions, ideal.FinalVC, cap.FinalVC)
	}
	it, iv := ideal.VC.Times(), ideal.VC.Values()
	ct, cv := cap.VC.Times(), cap.VC.Values()
	if len(it) != len(ct) {
		t.Fatalf("VC trace lengths differ: %d vs %d", len(it), len(ct))
	}
	for i := range it {
		if it[i] != ct[i] || iv[i] != cv[i] {
			t.Fatalf("VC traces diverge at sample %d: (%g,%g) vs (%g,%g)",
				i, it[i], iv[i], ct[i], cv[i])
		}
	}
	if ideal.Interrupts == 0 {
		t.Fatal("scenario produced no interrupts; equivalence not exercised")
	}
}

// TestSupercapLeakageDrains: with a finite leakage path the bank
// self-discharges, so the run ends with measurably less stored energy
// than the lossless capacitor under the same scenario.
func TestSupercapLeakageDrains(t *testing.T) {
	const duration = 30.0
	ideal, err := Run(storageControllerConfig(t, IdealCap{Farads: 47e-3}, duration))
	if err != nil {
		t.Fatal(err)
	}
	leaky := NewSupercap(buffer.Supercap{
		Farads: 47e-3, ESROhms: 0.05, LeakOhms: 50, VMax: soc.MaxOperatingVolts,
	})
	res, err := Run(storageControllerConfig(t, leaky, duration))
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalVC >= ideal.FinalVC {
		t.Errorf("leaky supercap final Vc %.4f V not below ideal %.4f V", res.FinalVC, ideal.FinalVC)
	}
	if res.StorageEnergyEndJ >= ideal.StorageEnergyEndJ {
		t.Errorf("leaky supercap retained %.4f J, ideal %.4f J", res.StorageEnergyEndJ, ideal.StorageEnergyEndJ)
	}
}

// TestStorageEnergyAccounting: the Result brackets the stored energy
// with the storage model's own accounting.
func TestStorageEnergyAccounting(t *testing.T) {
	st := IdealCap{Farads: 47e-3}
	res, err := Run(storageControllerConfig(t, st, 10))
	if err != nil {
		t.Fatal(err)
	}
	wantStart := 0.5 * 47e-3 * 5.3 * 5.3
	if math.Abs(res.StorageEnergyStartJ-wantStart) > 1e-12 {
		t.Errorf("start energy %g J, want %g J", res.StorageEnergyStartJ, wantStart)
	}
	wantEnd := 0.5 * 47e-3 * res.FinalVC * res.FinalVC
	if math.Abs(res.StorageEnergyEndJ-wantEnd) > 1e-12 {
		t.Errorf("end energy %g J, want %g J from final Vc %g", res.StorageEnergyEndJ, wantEnd, res.FinalVC)
	}
}

// TestHybridReservoirRidesThroughCollapse: when the harvest collapses, a
// hybrid buffer's diode lets the reservoir hold the node above the
// brownout floor long after a bare node capacitor of the same front-end
// size has died.
func TestHybridReservoirRidesThroughCollapse(t *testing.T) {
	// Full sun for 3 s, then darkness; a static mid OPP drains the node.
	profile, err := pv.NewSteps(pv.Step{From: 0, G: 1000}, pv.Step{From: 3, G: 0})
	if err != nil {
		t.Fatal(err)
	}
	lifetime := func(st Storage) float64 {
		plat := soc.NewDefaultPlatform()
		plat.Reset(0, soc.OPP{FreqIdx: 2, Config: soc.CoreConfig{Little: 4}})
		res, err := Run(Config{
			Array: pv.SouthamptonArray(), Profile: profile,
			Storage: st, InitialVC: 5.3, Platform: plat,
			Duration: 60, SkipSeries: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.BrownedOut {
			return 60
		}
		return res.FirstBrownout
	}
	bare := lifetime(IdealCap{Farads: 47e-3})
	hybrid := lifetime(HybridCap{
		NodeFarads: 47e-3, ReservoirFarads: 5,
		DiodeDropVolts: 0.35, DiodeOhms: 0.2,
		ChargeOhms: 10, LeakOhms: math.Inf(1),
	})
	if hybrid <= 2*bare {
		t.Errorf("hybrid lifetime %.2f s should far exceed bare capacitor %.2f s", hybrid, bare)
	}
}

// TestStorageValidation: malformed storage configurations are rejected
// before any integration runs.
func TestStorageValidation(t *testing.T) {
	base := func() Config {
		plat := soc.NewDefaultPlatform()
		plat.Reset(0, soc.MinOPP())
		return Config{
			Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
			InitialVC: 5.3, Platform: plat, Duration: 1, SkipSeries: true,
		}
	}
	cfg := base()
	cfg.Storage = IdealCap{Farads: -1}
	if _, err := Run(cfg); err == nil {
		t.Error("negative capacitance accepted")
	}
	cfg = base()
	cfg.Storage = IdealCap{Farads: 47e-3}
	cfg.Capacitance = 47e-3
	if _, err := Run(cfg); err == nil {
		t.Error("both Storage and Capacitance accepted")
	}
	cfg = base()
	cfg.Storage = HybridCap{NodeFarads: 47e-3, ReservoirFarads: 5, DiodeOhms: 0.2}
	if _, err := Run(cfg); err == nil {
		t.Error("hybrid with zero charge/leak resistance accepted")
	}
}

// BenchmarkStorageDispatch guards the Storage interface dispatch in the
// ODE hot path: the one-minute controller run (series capture off to
// isolate the integration loop) must not gain steady-state allocations
// over the PR 2 fast path, whichever storage model is plugged in.
func BenchmarkStorageDispatch(b *testing.B) {
	profile := pv.NewClouds(pv.Constant(900), pv.PartialSun(60), 42)
	models := []struct {
		name string
		st   Storage
	}{
		{"ideal", IdealCap{Farads: 47e-3}},
		{"supercap", NewSupercap(buffer.Supercap{
			Farads: 47e-3, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts})},
		{"hybrid", HybridCap{NodeFarads: 47e-3, ReservoirFarads: 1,
			DiodeDropVolts: 0.35, DiodeOhms: 0.2, ChargeOhms: 10, LeakOhms: 5000}},
	}
	for _, m := range models {
		b.Run(m.name, func(b *testing.B) {
			b.ReportAllocs()
			var work SolverCounters
			for i := 0; i < b.N; i++ {
				plat := soc.NewDefaultPlatform()
				plat.Reset(0, soc.MinOPP())
				ctrl, err := core.New(core.DefaultParams(), 5.3, soc.MinOPP(), 0)
				if err != nil {
					b.Fatal(err)
				}
				res, err := Run(Config{
					Array: pv.SouthamptonArray(), Profile: profile,
					Storage: m.st, InitialVC: 5.3, Platform: plat,
					Controller: ctrl, Duration: 60, SkipSeries: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				work.Add(res.Solver)
			}
			reportSolverWork(b, work, b.N)
		})
	}
}

// reportSolverWork is the in-package twin of testutil.ReportSolverWork
// (sim's tests cannot import testutil): work per op from summed
// counters, gated by pnbench -compare like allocs/op.
func reportSolverWork(b *testing.B, work SolverCounters, ops int) {
	n := float64(ops)
	b.ReportMetric(float64(work.Segments)/n, "segments/op")
	b.ReportMetric(float64(work.Steps)/n, "steps/op")
	b.ReportMetric(float64(work.Rejected)/n, "rejects/op")
	b.ReportMetric(float64(work.RHSEvals)/n, "rhs/op")
	b.ReportMetric(float64(work.NewtonIters)/n, "newton/op")
	b.ReportMetric(float64(work.ExactSolves)/n, "exact/op")
}

// nanAfter is an IdealCap whose Derivative returns NaN from its calls-th
// call on: a storage model that breaks down mid-run.
type nanAfter struct {
	IdealCap
	calls int
}

func (s *nanAfter) Derivative(state []float64, i float64, dstate []float64) {
	if s.calls--; s.calls < 0 {
		dstate[0] = math.NaN()
		return
	}
	s.IdealCap.Derivative(state, i, dstate)
}

// TestStorageNaNFailsRun: a NaN derivative must fail the run with the
// solver's step underflow rather than carry a NaN supply voltage on.
func TestStorageNaNFailsRun(t *testing.T) {
	plat := soc.NewDefaultPlatform()
	plat.Reset(0, soc.MinOPP())
	_, err := Run(Config{
		Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
		Storage:   &nanAfter{IdealCap: IdealCap{Farads: 47e-3}, calls: 200},
		InitialVC: 5.3, Platform: plat, Duration: 10,
	})
	if !errors.Is(err, ode.ErrStepUnderflow) {
		t.Fatalf("got err=%v, want ode.ErrStepUnderflow", err)
	}
	if !strings.HasPrefix(err.Error(), "sim: integration failed at t=") {
		t.Errorf("error %q lacks the main-segment prefix", err)
	}
}
