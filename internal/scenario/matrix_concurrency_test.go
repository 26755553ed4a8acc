package scenario

import (
	"fmt"
	"sync"
	"testing"

	"pnps/internal/buffer"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/testutil"
)

// TestScenarioMatrixConcurrentBitIdentical runs every registered
// scenario crossed with all three storage families, each cell over a
// set of diverging seeds (different cloud draws → different event
// times, rejects and interrupt schedules), first one run at a time and
// then with every run on its own goroutine, and requires the concurrent
// results to equal the sequential ones bit for bit — every scalar
// outcome, controller stat, envelope and captured series. Runs share
// only process-wide read-mostly state (the pv.Array.StandardMPP memo),
// which CI probes by running this suite under -race.
func TestScenarioMatrixConcurrentBitIdentical(t *testing.T) {
	lanes := 8
	if !testing.Short() {
		lanes = 16
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
				for i := range seeds {
					seeds[i] = int64(1000*si + 100*sti + i)
				}

				want := make([]*sim.Result, lanes)
				for i, seed := range seeds {
					res, err := spec.Run(seed)
					if err != nil {
						t.Fatalf("sequential seed %d: %v", seed, err)
					}
					want[i] = res
				}

				got := make([]*sim.Result, lanes)
				errs := make([]error, lanes)
				var wg sync.WaitGroup
				for i, seed := range seeds {
					wg.Add(1)
					go func() {
						defer wg.Done()
						got[i], errs[i] = spec.Run(seed)
					}()
				}
				wg.Wait()
				for i := range got {
					if errs[i] != nil {
						t.Fatalf("concurrent seed %d: %v", seeds[i], errs[i])
					}
					testutil.RequireEqualResults(t,
						fmt.Sprintf("lane %d (seed %d)", i, seeds[i]), got[i], want[i])
				}
			})
		}
	}
}
