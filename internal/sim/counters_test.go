package sim_test

import (
	"math"
	"testing"

	"pnps/internal/core"
	"pnps/internal/governor"
	"pnps/internal/monitor"
	"pnps/internal/pv"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
)

// pinnedRun is the part of a run's Result that TestSolverCountersPinned
// holds fixed: the solver work, the discrete-event counts and the exact
// bits of the headline metrics.
type pinnedRun struct {
	Solver                                 sim.SolverCounters
	Interrupts, GovernorTicks              int
	Brownouts, Restarts                    int
	FinalVC, LifetimeSeconds, Instructions uint64 // math.Float64bits
}

func pinRun(r *sim.Result) pinnedRun {
	return pinnedRun{
		Solver:     r.Solver,
		Interrupts: r.Interrupts, GovernorTicks: r.GovernorTicks,
		Brownouts: r.Brownouts, Restarts: r.Restarts,
		FinalVC:         math.Float64bits(r.FinalVC),
		LifetimeSeconds: math.Float64bits(r.LifetimeSeconds),
		Instructions:    math.Float64bits(r.Instructions),
	}
}

// darkSpell is full sun with a blackout from 10 s to 25 s: long enough to
// brown the board out, then enough light to restart it.
func darkSpell(t *testing.T) pv.Profile {
	t.Helper()
	steps, err := pv.NewSteps(
		pv.Step{From: 0, G: 1000},
		pv.Step{From: 10, G: 0},
		pv.Step{From: 25, G: 1000},
	)
	if err != nil {
		t.Fatal(err)
	}
	return steps
}

func pinController(t *testing.T) *core.Controller {
	t.Helper()
	c, err := core.New(core.DefaultParams(), 5.3, soc.MinOPP(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func platformAt(opp soc.OPP) *soc.Platform {
	p := soc.NewDefaultPlatform()
	p.Reset(0, opp)
	return p
}

// TestSolverCountersPinned pins the numerical work and the outcome bits of
// runs that between them take every path of the discrete-event loop: the
// stress-hybrid cell (the campaign matrix's dominant cell, with interrupt
// delays and latched-crossing replays), governor ticks ending segments, a
// brownout and restart under the controller (the recover event and the
// reboot deadline), a governor brownout and restart (the reboot that
// re-arms the tick at once), and a monitor with no interrupt delay (the
// ISR runs at the crossing). The stress-hybrid counts were recorded before
// the RHS invariants were hoisted out of the hot path, so a speedup that
// keeps them proves it made the same work cheaper rather than doing less
// of it.
func TestSolverCountersPinned(t *testing.T) {
	allOPP := soc.OPP{FreqIdx: 0, Config: soc.CoreConfig{Little: 4, Big: 4}}
	noDelay := monitor.DefaultConfig()
	noDelay.PropagationDelay, noDelay.ISRLatency = 0, 0
	cases := []struct {
		name string
		cfg  func(t *testing.T) sim.Config
		want pinnedRun
	}{
		{
			name: "stress-hybrid",
			cfg: func(t *testing.T) sim.Config {
				spec := scenario.MustLookup("stress-hybrid")
				spec.SkipSeries = true
				spec.Utilisation = 1
				cfg, err := spec.Assemble(1)
				if err != nil {
					t.Fatal(err)
				}
				return cfg
			},
			want: pinnedRun{
				Solver: sim.SolverCounters{
					Segments: 48676, Steps: 145137, Rejected: 34205,
					RHSEvals: 586702, NewtonIters: 1435321, ExactSolves: 2,
				},
				Interrupts: 15143, Brownouts: 1,
				FinalVC:         4618458951877144110,
				LifetimeSeconds: 4642084672997808232,
				Instructions:    4765658982949424425,
			},
		},
		{
			name: "governor-ticks",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					Array: pv.SouthamptonArray(), Profile: pv.Constant(1000),
					Capacitance: 47e-3, InitialVC: 5.3, Platform: platformAt(allOPP),
					Governor: governor.Powersave{}, Duration: 5, SkipSeries: true,
				}
			},
			want: pinnedRun{
				Solver: sim.SolverCounters{
					Segments: 51, Steps: 117, Rejected: 18,
					RHSEvals: 456, NewtonIters: 894,
				},
				GovernorTicks:   51,
				FinalVC:         4618817709726018307,
				LifetimeSeconds: 4617315517961601024,
				Instructions:    4748876504811214926,
			},
		},
		{
			name: "controller-restart",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					Array: pv.SouthamptonArray(), Profile: darkSpell(t),
					Capacitance: 47e-3, InitialVC: 5.3, Platform: platformAt(soc.MinOPP()),
					Controller: pinController(t), Duration: 60, SkipSeries: true,
					BrownoutRestart: true, RebootSeconds: 2,
				}
			},
			want: pinnedRun{
				Solver: sim.SolverCounters{
					Segments: 90, Steps: 783, Rejected: 109,
					RHSEvals: 2766, NewtonIters: 5761,
				},
				Interrupts: 42, Brownouts: 1, Restarts: 1,
				FinalVC:         4618885262462378073,
				LifetimeSeconds: 4631245050075129287,
				Instructions:    4765170764889767142,
			},
		},
		{
			name: "governor-restart",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					Array: pv.SouthamptonArray(), Profile: darkSpell(t),
					Capacitance: 47e-3, InitialVC: 5.3, Platform: platformAt(allOPP),
					Governor: governor.NewOndemand(), Duration: 60, SkipSeries: true,
					BrownoutRestart: true, RebootSeconds: 2,
				}
			},
			want: pinnedRun{
				Solver: sim.SolverCounters{
					Segments: 390, Steps: 3250, Rejected: 408,
					RHSEvals: 11364, NewtonIters: 27833,
				},
				GovernorTicks: 101, Brownouts: 18, Restarts: 17,
				FinalVC:         4619066990387559608,
				LifetimeSeconds: 4621298456066396450,
				Instructions:    4761036677853108664,
			},
		},
		{
			name: "controller-no-isr-delay",
			cfg: func(t *testing.T) sim.Config {
				return sim.Config{
					Array: pv.SouthamptonArray(), Profile: darkSpell(t),
					Capacitance: 47e-3, InitialVC: 5.3, Platform: platformAt(soc.MinOPP()),
					Controller: pinController(t), MonitorConfig: noDelay,
					Duration: 30, SkipSeries: true,
				}
			},
			want: pinnedRun{
				Solver: sim.SolverCounters{
					Segments: 46, Steps: 349, Rejected: 126,
					RHSEvals: 1471, NewtonIters: 3239,
				},
				Interrupts: 42, Brownouts: 1,
				FinalVC:         4619066997382625554,
				LifetimeSeconds: 4621893099080084500,
				Instructions:    4764869435376182015,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := sim.Run(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			if got := pinRun(res); got != tc.want {
				t.Errorf("pinned run\n got %+v\nwant %+v", got, tc.want)
			}
			// Every segment seeds one RHS evaluation and every step
			// attempt makes three more (Bogacki–Shampine with
			// first-same-as-last).
			c := res.Solver
			if got := c.Segments + 3*(c.Steps+c.Rejected); c.RHSEvals != got {
				t.Errorf("RHSEvals = %d, want Segments + 3·attempts = %d", c.RHSEvals, got)
			}
		})
	}
}
