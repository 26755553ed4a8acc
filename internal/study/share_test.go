package study

import (
	"context"
	"fmt"
	"math"
	"testing"

	"pnps/internal/buffer"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/testutil"
)

func supercapLevel() Level {
	return Storage("supercap", sim.NewSupercap(buffer.Supercap{
		Farads: 0.047, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts,
	}))
}

// TestSharedRunsMatchIndependentRuns is the oracle for run sharing:
// every task of every registry scenario with a profile, on each storage
// family, carries exactly the metrics, dwell histogram and solver work
// of an independent Spec.Assemble + instrument + sim.Run of its own
// seed, at one worker and at four. Tasks share a Result exactly when
// their cell and realisation identity agree. At 3 s, most stress-cloud
// realisations are cloud-free and share one run, while a clouded one,
// and every fig12-fullsun realisation (its clouds cover the whole day),
// runs alone.
func TestSharedRunsMatchIndependentRuns(t *testing.T) {
	ctx := context.Background()
	type key struct {
		cell int
		id   string
	}
	var sharedGroups, loneGroups int
	for _, base := range scenario.List() {
		if base.Profile == nil {
			continue
		}
		base.Duration = 3
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%s workers=%d", base.Name, workers)
			st := Study{
				Name: base.Name, Base: base, Reps: 8, Seed: 41, Workers: workers,
				Axes:       []Axis{NewAxis("storage", idealLevel(), supercapLevel(), hybridLevel())},
				VCHistBins: 16, VCHistLo: 3, VCHistHi: 7,
			}
			p, err := st.plan()
			if err != nil {
				t.Fatal(err)
			}
			results, err := p.runRanges(ctx, nil, TaskRange{Lo: 0, Hi: p.total})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			byKey := map[key]*sim.Result{}
			owner := map[*sim.Result]*key{} // nil: a task without identity
			size := map[*sim.Result]int{}
			for _, r := range results {
				task := fmt.Sprintf("%s task %d", label, r.Task.Index)
				rl, err := r.Spec.Realise(r.Task.Seed)
				if err != nil {
					t.Fatal(err)
				}
				var k *key
				if id, ok := rl.AppendIdentity(nil); ok {
					k = &key{r.Task.Cell, string(id)}
					if prev, seen := byKey[*k]; seen && prev != r.Result {
						t.Fatalf("%s: equal identity to an earlier task, but a Result of its own", task)
					}
					byKey[*k] = r.Result
				}
				if prev, seen := owner[r.Result]; seen && (k == nil || prev == nil || *prev != *k) {
					t.Fatalf("%s: shares a Result with a task of another cell or identity", task)
				}
				owner[r.Result] = k
				size[r.Result]++

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
				if len(r.Hist.Bins) != len(hist.Bins) || r.Hist.Total() != hist.Total() ||
					r.Hist.Underflow() != hist.Underflow() || r.Hist.Overflow() != hist.Overflow() {
					t.Fatalf("%s: histogram geometry or totals differ", task)
				}
				for i := range hist.Bins {
					if math.Float64bits(r.Hist.Bins[i]) != math.Float64bits(hist.Bins[i]) {
						t.Fatalf("%s: histogram bin %d: %v, independent run %v", task, i, r.Hist.Bins[i], hist.Bins[i])
					}
				}
			}
			for _, n := range size {
				if n > 1 {
					sharedGroups++
				} else {
					loneGroups++
				}
			}
		}
	}
	t.Logf("%d shared and %d lone groups", sharedGroups, loneGroups)
	if sharedGroups == 0 || loneGroups == 0 {
		t.Fatalf("%d shared and %d lone groups: the oracle needs both", sharedGroups, loneGroups)
	}
}

// TestProgressCountsSharedTasks pins OnProgress under run sharing: one
// call per simulation, each advancing the count by the tasks that
// simulation completed, monotone and ending at total.
func TestProgressCountsSharedTasks(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 2
	var calls, last, total int
	st := Study{
		Name: "progress", Base: base, Reps: 32, Seed: 3, Workers: 4,
		Axes: []Axis{NewAxis("load", Utilisation(1), Utilisation(0.5))},
		// Calls are serialised, so plain ints are race-free here.
		OnProgress: func(done, n int) {
			if done <= last {
				t.Errorf("progress went %d -> %d", last, done)
			}
			calls++
			last, total = done, n
		},
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sims := map[*sim.Result]bool{}
	for _, r := range out.Results {
		sims[r.Result] = true
	}
	if last != 64 || total != 64 || calls != len(sims) || len(sims) >= 64 {
		t.Fatalf("progress ended %d/%d after %d calls; %d distinct simulations of 64 tasks",
			last, total, calls, len(sims))
	}
}
