package sim_test

import (
	"runtime"
	"testing"
	"time"

	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
)

// TestResultDoesNotRetainEngine: a held Result must not keep its run's
// engine alive. Campaigns retain one Result per run, so a Result that
// pinned the engine would also pin the platform, the integrator, the PV
// solver, the monitor and the controller of every run in the study. The
// run's platform is reachable only through the engine once the config
// is dropped, so its finalizer firing while the Result is still live
// proves the engine was collected.
func TestResultDoesNotRetainEngine(t *testing.T) {
	res, collected := runWatchingPlatform(t)
	deadline := time.After(5 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-deadline:
			t.Fatal("the run's platform is still reachable from its Result: the Result pins the engine")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if res.LifetimeSeconds <= 0 {
		t.Errorf("LifetimeSeconds = %g, want the held Result intact", res.LifetimeSeconds)
	}
	runtime.KeepAlive(res)
}

// runWatchingPlatform runs a short trace-free stress run and returns its
// Result with a channel that closes once the run's platform is collected.
// The config lives only in this frame, so after return the platform is
// reachable through the Result or nothing.
func runWatchingPlatform(t *testing.T) (*sim.Result, <-chan struct{}) {
	t.Helper()
	spec := scenario.MustLookup("stress-clouds")
	spec.SkipSeries = true
	spec.Duration = 5
	cfg, err := spec.Assemble(1)
	if err != nil {
		t.Fatal(err)
	}
	collected := make(chan struct{})
	runtime.SetFinalizer(cfg.Platform, func(*soc.Platform) { close(collected) })
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, collected
}
