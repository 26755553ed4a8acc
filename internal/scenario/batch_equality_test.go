package scenario

import (
	"fmt"
	"testing"

	"pnps/internal/buffer"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/testutil"
)

// assembleAll assembles one config per (spec, seed) pair.
func assembleAll(t *testing.T, specs []Spec, seeds []int64) []sim.Config {
	t.Helper()
	cfgs := make([]sim.Config, len(specs))
	for i := range specs {
		var err error
		if cfgs[i], err = specs[i].Assemble(seeds[i]); err != nil {
			t.Fatalf("assemble %s seed %d: %v", specs[i].Name, seeds[i], err)
		}
	}
	return cfgs
}

// TestBatchEngineBitIdenticalToScalar is the tentpole property test: the
// batched lockstep engine must produce bit-identical results to the
// scalar engine — every scalar outcome, controller stat, envelope and
// captured series — across every registered scenario crossed with all
// three storage families, at batch widths 1 and 8 (plus 16 with twice
// the seeds outside -short, so the widest stage slab and W=8's
// multi-group packing are both covered). The per-cell seeds make the
// lanes diverge (different cloud draws → different event times, rejects
// and interrupt schedules), so lockstep interleaving, per-lane
// divergence fallback and rejoin are all exercised. CI runs this suite
// under -race.
func TestBatchEngineBitIdenticalToScalar(t *testing.T) {
	const width8 = 8
	lanes := width8
	widths := []int{1, width8}
	if !testing.Short() {
		lanes = 2 * width8
		widths = append(widths, 2*width8)
	}
	storages := []struct {
		name string
		mk   func() sim.Storage
	}{
		{"idealcap", func() sim.Storage { return nil }}, // spec default: ideal 47 mF
		{"supercap", func() sim.Storage {
			return sim.NewSupercap(buffer.Supercap{
				Farads: 47e-3, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts,
			})
		}},
		{"hybridcap", func() sim.Storage {
			return sim.HybridCap{NodeFarads: 10e-3, ReservoirFarads: 47e-3,
				DiodeDropVolts: 0.35, DiodeOhms: 0.2, ChargeOhms: 10, LeakOhms: 5000}
		}},
	}

	names := Names()
	if len(names) < 10 {
		t.Fatalf("registry has %d scenarios, want the 10 built-ins", len(names))
	}
	for si, name := range names {
		for sti, st := range storages {
			t.Run(fmt.Sprintf("%s/%s", name, st.name), func(t *testing.T) {
				spec := MustLookup(name)
				// Short spans keep the full matrix fast while leaving
				// enough time for interrupts, brownouts and governor
				// ticks to fire on the stressed scenarios.
				if spec.Duration > 6 {
					spec.Duration = 6
				}
				if s := st.mk(); s != nil {
					spec.Storage = s
				}

				seeds := make([]int64, lanes)
				specs := make([]Spec, lanes)
				for i := range seeds {
					seeds[i] = int64(1000*si + 100*sti + i)
					specs[i] = spec
				}

				// Scalar reference, one run at a time.
				want := make([]*sim.Result, lanes)
				for i, seed := range seeds {
					res, err := spec.Run(seed)
					if err != nil {
						t.Fatalf("scalar seed %d: %v", seed, err)
					}
					want[i] = res
				}

				for _, w := range widths {
					cfgs := assembleAll(t, specs, seeds)
					results, errs := sim.BatchEngine{W: w}.RunGroup(cfgs)
					for i := range results {
						if errs[i] != nil {
							t.Fatalf("W=%d lane %d: %v", w, i, errs[i])
						}
						testutil.RequireEqualResults(t,
							fmt.Sprintf("W=%d lane %d (seed %d)", w, i, seeds[i]),
							results[i], want[i])
					}
				}
			})
		}
	}
}

// TestBatchEngineMixedSpecsOneBatch packs heterogeneous cells — distinct
// scenarios, storage dimensions (1-state ideal cap and 2-state hybrid)
// and control schemes — into one lockstep batch and requires every lane
// to match its scalar reference, pinning that lane packing never leaks
// state across cells.
func TestBatchEngineMixedSpecsOneBatch(t *testing.T) {
	mix := []struct {
		name string
		seed int64
	}{
		{"stress-clouds", 1}, {"steady-sun", 2}, {"fig6-shadow", 3},
		{"fig11-bench", 4}, {"table2-harvest", 5}, {"stress-hybrid", 6},
	}
	specs := make([]Spec, len(mix))
	seeds := make([]int64, len(mix))
	for i, m := range mix {
		s := MustLookup(m.name)
		if s.Duration > 6 {
			s.Duration = 6
		}
		specs[i], seeds[i] = s, m.seed
	}

	want := make([]*sim.Result, len(mix))
	for i := range specs {
		res, err := specs[i].Run(seeds[i])
		if err != nil {
			t.Fatalf("scalar %s: %v", mix[i].name, err)
		}
		want[i] = res
	}

	results, errs := sim.RunBatch(assembleAll(t, specs, seeds))
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("lane %d (%s): %v", i, mix[i].name, errs[i])
		}
		testutil.RequireEqualResults(t, fmt.Sprintf("lane %d (%s)", i, mix[i].name), results[i], want[i])
	}
}
