package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"pnps/internal/batch"
	"pnps/internal/sim"
	"pnps/internal/study"
	"pnps/internal/studycli"
)

// The stress matrix every workload runs: three storage families crossed
// with two load levels, 64-bin supply dwell histograms on [4, 6] V.
const (
	matrixStorage = "ideal:0.047,supercap:0.047,hybrid:0.01:1"
	matrixUtil    = "1,0.5"
)

// Replay sampling: right after each study, every checkStride-th of its
// runs is re-executed and must reproduce its metrics bit for bit; a
// traced run replays every traceStride-th run and times its layers.
const (
	checkStride = 64
	traceStride = 8
)

func stressRecipe(seed int64, duration float64, reps int) studycli.Config {
	return studycli.Config{
		Scenario: "stress-clouds", Duration: duration,
		Storage: matrixStorage, Util: matrixUtil,
		Reps: reps, Seed: seed, Bins: 64, HistLo: 4, HistHi: 6,
	}
}

func buildStudy(c studycli.Config, workers int) (study.Study, error) {
	st, err := c.Build()
	st.Workers = workers
	return st, err
}

func outcomeJSON(out *study.StudyOutcome) ([]byte, error) {
	var buf bytes.Buffer
	err := out.WriteJSON(&buf)
	return buf.Bytes(), err
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// runCampaign runs back-to-back studies of one size, study k seeded
// batch.Seed(seed, k), until the window closes. A study is the job: its
// wall time is the latency a campaign user waits for.
func runCampaign(r *runner, sz sizes) error {
	ctx := context.Background()
	recipe := func(k int) studycli.Config {
		return stressRecipe(batch.Seed(r.seed, k), sz.Duration, sz.Reps)
	}
	// Set-up: build and plan the first study, then warm the engine and
	// the heap with a 1/16-size study.
	if _, err := measureSetup(r, func() (struct{}, error) {
		st, err := buildStudy(recipe(0), simWorkers)
		if err == nil {
			_, err = st.Chunks(sz.Reps)
		}
		if err != nil {
			return struct{}{}, err
		}
		warm, err := buildStudy(stressRecipe(warmSeed, sz.Duration, max(2, sz.Reps/16)), simWorkers)
		if err == nil {
			_, err = warm.Run(ctx)
		}
		return struct{}{}, err
	}, func(struct{}) {}); err != nil {
		return err
	}

	stride := checkStride
	var baseHeap float64
	if r.tr != nil {
		stride = traceStride
		baseHeap = liveHeapMB()
	}
	var (
		walls  []float64 // ms per study
		runs   int
		allocs uint64
		// Replayed-run totals, and the same work extrapolated to whole
		// studies. Each study's sample replays right after it, so a share
		// sets two measurements of one host state against each other.
		replayed, events int
		asm, run         time.Duration
		estAsm, estRun   float64 // µs
	)
	rt0 := readRuntime()
	start := r.openWindow()
	for k := 0; k == 0 || time.Since(start) < r.window; k++ {
		st, err := buildStudy(recipe(k), simWorkers)
		if err != nil {
			return err
		}
		if err := r.calibrate(); err != nil {
			return err
		}
		a0 := readRuntime().allocBytes
		t0 := time.Now()
		out, err := st.Run(ctx)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("study %d: %w", k, err)
		}
		allocs += readRuntime().allocBytes - a0
		r.tr.Add(0, 0, "study.Run", fmt.Sprintf("study-%d", k), t0, t1)
		walls = append(walls, ms(t1.Sub(t0)))
		runs += len(out.Results)
		if k == 0 {
			if err := checkPin(r, sz, out); err != nil {
				return err
			}
			if r.tr != nil {
				held := liveHeapMB()
				runtime.KeepAlive(out)
				r.set("study.retained_mb_per_1k_runs", (held-baseHeap)*1000/float64(len(out.Results)))
			}
		}
		var sample []study.TaskResult
		for i := 0; i < len(out.Results); i += stride {
			sample = append(sample, out.Results[i])
		}
		// Replay on a collected heap: the garbage collection a study's
		// retained results cost it stays in study.overhead_share.
		per := float64(len(out.Results)) / float64(len(sample))
		out = nil
		runtime.GC()
		var a, b time.Duration
		for _, s := range replayRuns(r, st, sample) {
			a += s.assemble
			b += s.run
			events += s.events
		}
		asm, run, replayed = asm+a, run+b, replayed+len(sample)
		estAsm, estRun = estAsm+us(a)*per, estRun+us(b)*per
	}
	r.closeWindow()
	rt1 := readRuntime()

	r.attempted = runs
	slow := r.slowdown()
	lat := summarise(scale(walls, 1/slow))
	r.set("runs_per_s", float64(runs)/(sum(walls)/1e3)*slow)
	r.set("job_p50_ms", lat.P50)
	r.set("job_mean_ms", lat.Mean)
	r.set("job_p99_ms", lat.Tail)
	r.set("job_samples", float64(lat.N))
	r.set("runtime.gc_cpu_share", gcShare(rt0, rt1))
	r.set("study.alloc_kb_per_run", float64(allocs)/1024/float64(runs))

	n := float64(replayed)
	asmUs, runUs := us(asm)/n/slow, us(run)/n/slow
	busy := sum(walls) * 1e3 * simWorkers // worker µs
	r.set("scenario.assemble_us", asmUs)
	r.set("scenario.assemble_share", estAsm/busy)
	r.set("sim.run_us", runUs)
	r.set("sim.run_share", estRun/busy)
	r.set("study.overhead_share", 1-(estAsm+estRun)/busy)
	r.set("sim.host_us_per_sim_s", runUs/sz.Duration)
	r.set("sim.events_per_run", float64(events)/n)
	r.set("sim.host_ns_per_event", runUs*1e3*n/float64(max(events, 1)))
	return nil
}

// checkPin compares the first study's outcome with the pinned digest,
// which holds only at the default seed and the full size.
func checkPin(r *runner, sz sizes, out *study.StudyOutcome) error {
	if r.seed != defaultSeed || sz.Pin == "" {
		return nil
	}
	raw, err := outcomeJSON(out)
	if err != nil {
		return err
	}
	if got := sha256Hex(raw); got != sz.Pin {
		r.problem("first study outcome JSON has SHA-256 %s, pinned %s", got, sz.Pin)
	}
	return nil
}

// replayStat is the timing of one replayed run.
type replayStat struct {
	assemble, run time.Duration
	events        int
}

// replayRuns re-executes sampled runs on simWorkers goroutines the way
// Study.Run's scalar path does — Spec.Assemble, the study's stability
// bands and dwell histogram, sim.Run — and times each layer. A replay
// whose metrics differ from the run's in any bit did not measure the
// same work, and is a correctness failure.
func replayRuns(r *runner, st study.Study, samples []study.TaskResult) []replayStat {
	stats := make([]replayStat, len(samples))
	parent := r.tr.NewID()
	var mu sync.Mutex
	t0 := time.Now()
	forEach(0, len(samples), simWorkers, func(i int) {
		s, err := replayOne(r.tr, parent, st, samples[i])
		if err != nil {
			mu.Lock()
			r.problem("replay of task %d (seed %d): %v", samples[i].Task.Index, samples[i].Task.Seed, err)
			mu.Unlock()
		}
		stats[i] = s
	})
	r.tr.Add(parent, 0, "replay", "", t0, time.Now())
	return stats
}

func replayOne(tr *Tracer, parent int64, st study.Study, t study.TaskResult) (replayStat, error) {
	req := fmt.Sprintf("task-%d", t.Task.Index)
	a0 := time.Now()
	cfg, err := t.Spec.Assemble(t.Task.Seed)
	a1 := time.Now()
	if err != nil {
		return replayStat{}, err
	}
	cfg.StabilityBands = append(append([]float64(nil), cfg.StabilityBands...), stabilityBands(st)...)
	if st.VCHistBins > 0 {
		tis, err := sim.NewTimeInStateObserver(sim.ChanVC, st.VCHistLo, st.VCHistHi, st.VCHistBins)
		if err != nil {
			return replayStat{}, err
		}
		cfg.Observers = append(append([]sim.Observer(nil), cfg.Observers...), tis)
	}
	r0 := time.Now()
	res, err := sim.Run(cfg)
	r1 := time.Now()
	tr.Add(0, parent, "scenario.Assemble", req, a0, a1)
	tr.Add(0, parent, "sim.Run", req, r0, r1)
	if err != nil {
		return replayStat{}, err
	}
	if got := runMetrics(res); got != t.Metrics {
		return replayStat{}, fmt.Errorf("metrics %+v, the study recorded %+v", got, t.Metrics)
	}
	if t.Result != nil && (res.Interrupts != t.Result.Interrupts || res.GovernorTicks != t.Result.GovernorTicks ||
		res.ControllerStats != t.Result.ControllerStats) {
		return replayStat{}, fmt.Errorf("event counts differ from the study's run")
	}
	return replayStat{assemble: a1.Sub(a0), run: r1.Sub(r0), events: events(res)}, nil
}

// stabilityBands mirrors Study's effective bands: the configured (or
// default) bands, always including the ±5% band the summaries use.
func stabilityBands(st study.Study) []float64 {
	bands := st.StabilityBands
	if len(bands) == 0 {
		bands = study.DefaultStabilityBands
	}
	for _, b := range bands {
		if b == 0.05 {
			return bands
		}
	}
	return append(append([]float64(nil), bands...), 0.05)
}

// runMetrics derives a run's aggregation scalars exactly as the study
// does.
func runMetrics(res *sim.Result) study.RunMetrics {
	return study.RunMetrics{
		Survived:            !res.BrownedOut,
		Brownouts:           res.Brownouts,
		Stability:           res.StabilityWithin(0.05),
		Instructions:        res.Instructions,
		LifetimeSeconds:     res.LifetimeSeconds,
		FinalVC:             res.FinalVC,
		MinVC:               res.VCEnvelope.Min,
		StorageEnergyDeltaJ: res.StorageEnergyEndJ - res.StorageEnergyStartJ,
	}
}

// events counts a run's discrete events: serviced interrupts, governor
// ticks, brownouts and the OPP changes the controller commanded.
func events(res *sim.Result) int {
	c := res.ControllerStats
	return res.Interrupts + res.GovernorTicks + res.Brownouts + c.FreqSteps + c.BigToggles + c.LittleToggles
}
