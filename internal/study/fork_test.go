package study

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/testutil"
)

// requireIndependentRuns fails unless every task carries exactly the
// metrics, dwell histogram and solver work of an independent
// Spec.Assemble + instrument + sim.Run of its own seed. It returns the
// simulated seconds the study's distinct simulations took from leads.
func requireIndependentRuns(t *testing.T, label string, st Study, results []TaskResult) float64 {
	t.Helper()
	p, err := st.plan()
	if err != nil {
		t.Fatal(err)
	}
	shared := 0.0
	seen := map[*sim.Result]bool{}
	for _, r := range results {
		task := fmt.Sprintf("%s task %d", label, r.Task.Index)
		cfg, err := r.Spec.Assemble(r.Task.Seed)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := p.instrument(&cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		testutil.RequireEqualResults(t, task, r.Result, want)
		testutil.RequireEqual(t, task+" solver work", r.Result.Solver, want.Solver)
		testutil.RequireEqual(t, task+" metrics", r.Metrics, metricsFrom(want))
		if (r.Hist == nil) != (hist == nil) {
			t.Fatalf("%s: histogram presence differs", task)
		}
		if hist != nil {
			if r.Hist.Lo != hist.Lo || r.Hist.Hi != hist.Hi || len(r.Hist.Bins) != len(hist.Bins) ||
				r.Hist.Total() != hist.Total() || r.Hist.Underflow() != hist.Underflow() || r.Hist.Overflow() != hist.Overflow() {
				t.Fatalf("%s: histogram geometry or totals differ", task)
			}
			for i := range hist.Bins {
				if math.Float64bits(r.Hist.Bins[i]) != math.Float64bits(hist.Bins[i]) {
					t.Fatalf("%s: histogram bin %d: %v, independent run %v", task, i, r.Hist.Bins[i], hist.Bins[i])
				}
			}
		}
		if !seen[r.Result] {
			seen[r.Result] = true
			shared += r.Result.SharedPrefixSeconds
		}
	}
	return shared
}

// TestForkedStudyRunsMatchIndependentRuns runs studies whose cells mix
// cloud-free and cloudy realisations, so cloudy groups fork from their
// cell's lead, at one worker and at three (the race detector then sees
// followers resume while their leads still run). Every task must equal
// its independent run and some must have been forked. A governor cell
// and a study with series capture cannot fork: their runs report no
// shared prefix.
func TestForkedStudyRunsMatchIndependentRuns(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 4
	for _, workers := range []int{1, 3} {
		st := Study{
			Name: "forks", Base: base, Reps: 24, Seed: 9, Workers: workers,
			Axes: []Axis{
				NewAxis("storage", idealLevel(), supercapLevel(), hybridLevel()),
				NewAxis("control", Control("pn", scenario.Control{}), Control("ondemand", scenario.Governed("ondemand"))),
			},
			VCHistBins: 16, VCHistLo: 3, VCHistHi: 7,
		}
		p, err := st.plan()
		if err != nil {
			t.Fatal(err)
		}
		results, err := p.runRanges(context.Background(), nil, TaskRange{Lo: 0, Hi: p.total})
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("workers=%d", workers)
		if shared := requireIndependentRuns(t, label, st, results); !(shared > 0) {
			t.Fatalf("%s: no run forked", label)
		}
		for _, r := range results {
			if r.Spec.Control.Kind == scenario.LinuxGovernor && r.Result.SharedPrefixSeconds != 0 {
				t.Fatalf("%s: governor task %d shared %v s", label, r.Task.Index, r.Result.SharedPrefixSeconds)
			}
		}
	}
}

// FuzzForkEquivalence fuzzes the study shapes prefix forking runs in:
// seed, duration up to 10 s, repetitions, storage, load and worker
// count. Every task must carry exactly its independent run's metrics,
// histogram and solver work.
func FuzzForkEquivalence(f *testing.F) {
	// Seeds 2, 5 and 8 at 10 s fork 10, 23 and 16 simulated seconds.
	f.Add(int64(2), uint8(99), uint8(15), uint8(0), uint8(255), uint8(2))
	f.Add(int64(5), uint8(99), uint8(15), uint8(1), uint8(128), uint8(3))
	f.Add(int64(8), uint8(99), uint8(15), uint8(2), uint8(255), uint8(1))
	f.Add(int64(-3), uint8(8), uint8(0), uint8(1), uint8(0), uint8(4))
	levels := []Level{idealLevel(), supercapLevel(), hybridLevel()}
	f.Fuzz(func(t *testing.T, seed int64, tenths, reps, storage, load, workers uint8) {
		base := scenario.MustLookup("stress-clouds")
		base.Duration = float64(tenths%100+1) / 10
		st := Study{
			Name: "fuzz-forks", Base: base, Reps: int(reps%16) + 1, Seed: seed,
			Workers: int(workers%4) + 1,
			Axes: []Axis{
				NewAxis("storage", levels[int(storage)%len(levels)]),
				// Loads at or below 0.2 storm the monitor at ~9 k
				// interrupts per second; keep each input fast.
				NewAxis("load", Utilisation(0.25+0.75*float64(load)/255)),
			},
			VCHistBins: 16, VCHistLo: 3, VCHistHi: 7,
		}
		p, err := st.plan()
		if err != nil {
			t.Fatal(err)
		}
		results, err := p.runRanges(context.Background(), nil, TaskRange{Lo: 0, Hi: p.total})
		if err != nil {
			t.Fatal(err)
		}
		requireIndependentRuns(t, "fuzz", st, results)
	})
}
