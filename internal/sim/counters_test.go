package sim_test

import (
	"testing"

	"pnps/internal/scenario"
	"pnps/internal/sim"
)

// TestSolverCountersPinned pins the numerical work of one stress-clouds
// run on the hybrid buffer at full load (the campaign matrix's dominant
// cell). The counts were recorded before the RHS invariants were hoisted
// out of the hot path, so a speedup that keeps them proves it made the
// same work cheaper rather than doing less of it.
func TestSolverCountersPinned(t *testing.T) {
	spec := scenario.MustLookup("stress-hybrid")
	spec.SkipSeries = true
	spec.Utilisation = 1
	cfg, err := spec.Assemble(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := sim.SolverCounters{
		Segments: 48676, Steps: 145137, Rejected: 34205,
		RHSEvals: 586702, NewtonIters: 1435321, ExactSolves: 2,
	}
	if res.Solver != want {
		t.Errorf("solver counters\n got %+v\nwant %+v", res.Solver, want)
	}
	if res.Interrupts != 15143 {
		t.Errorf("interrupts = %d, want 15143", res.Interrupts)
	}
	// Every segment seeds one RHS evaluation and every step attempt makes
	// three more (Bogacki–Shampine with first-same-as-last).
	c := res.Solver
	if got := c.Segments + 3*(c.Steps+c.Rejected); c.RHSEvals != got {
		t.Errorf("RHSEvals = %d, want Segments + 3·attempts = %d", c.RHSEvals, got)
	}
}
