package study

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/testutil"
)

// BenchmarkCampaignTraceFree is the campaign-scale hot-path benchmark:
// a one-cell Monte-Carlo study of short cloud-stressed power-neutral
// runs with trace-free aggregation (online stability, envelopes,
// dwell-time histogram). Memory per iteration is the study's whole
// footprint — O(runs) scalar outcomes, no series — so allocs/op and
// B/op here are the numbers the README "Performance" section quotes
// for trace-free campaigns. The meanPct5 metric pins the outcome on
// every record; retainedB/run is the heap the held outcome keeps live
// per run, after a full collection (what a study retaining thousands
// of runs pays).
// The work metrics (segments/op ... exact/op) sum the study's solver
// counters per task, shared runs counted once per task; sims/op counts
// the distinct simulations behind the study's tasks (cloud-free tasks
// share one run). Of those, forks/op counts the ones resumed from their
// cell lead's state past t = 0, and shared_s/op sums the simulated
// seconds they took from it instead of simulating. Every iteration runs
// the same deterministic study, so the last one stands for all.
func BenchmarkCampaignTraceFree(b *testing.B) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 10
	const runs = 32
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				last := i == b.N-1
				var before uint64
				if last {
					b.StopTimer()
					before = liveHeap()
					b.StartTimer()
				}
				out, err := Study{
					Name: base.Name, Base: base, Reps: runs, Seed: 17, Workers: workers,
					VCHistBins: 64, VCHistLo: 4.0, VCHistHi: 6.0,
				}.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if last {
					b.StopTimer()
					held := liveHeap()
					runtime.KeepAlive(out)
					b.ReportMetric(out.Summary.Stability.Mean*100, "meanPct5")
					b.ReportMetric((float64(held)-float64(before))/runs, "retainedB/run")
					var work sim.SolverCounters
					var forks, shared float64
					sims := map[*sim.Result]bool{}
					for _, r := range out.Results {
						work.Add(r.Result.Solver)
						if !sims[r.Result] && r.Result.SharedPrefixSeconds > 0 {
							forks++
							shared += r.Result.SharedPrefixSeconds
						}
						sims[r.Result] = true
					}
					testutil.ReportSolverWork(b, work, 1)
					b.ReportMetric(float64(len(sims)), "sims/op")
					b.ReportMetric(forks, "forks/op")
					b.ReportMetric(shared, "shared_s/op")
				}
			}
		})
	}
}

// liveHeap returns the bytes of heap objects still live after a full
// collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// BenchmarkStudyChunks is a coordinator worker's side of a study: the
// 10 s stress matrix cut into 4-task chunks, run in ledger order
// through one RunStore on one worker, each chunk cut into its
// checkpoint. sims/op counts the distinct simulations behind the
// study's tasks, kept/op the tasks that took a run an earlier chunk
// kept instead of simulating, forks/op the simulations resumed past
// t = 0 and shared_s/op the simulated seconds those took from
// snapshots. keptB is the heap the store still holds after the study,
// after a full collection. Every iteration runs the same deterministic
// study, so the last one stands for all.
func BenchmarkStudyChunks(b *testing.B) {
	const size = 4
	st := stressMatrix(10, 64, 17, 1)
	chunks, err := st.Chunks(size)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		last := i == b.N-1
		var before uint64
		if last {
			b.StopTimer()
			before = liveHeap()
			b.StartTimer()
		}
		sr, err := NewRunStore().Bind(st, "")
		if err != nil {
			b.Fatal(err)
		}
		var stats runnerStats
		for _, r := range chunks {
			results, err := sr.runChunk(context.Background(), r)
			if err != nil {
				b.Fatal(err)
			}
			sr.p.checkpointFrom(results)
			if last {
				stats.add(results)
			}
		}
		if last {
			b.StopTimer()
			stats.seen = nil
			held := liveHeap()
			runtime.KeepAlive(sr)
			b.ReportMetric(float64(stats.sims), "sims/op")
			b.ReportMetric(float64(stats.reused), "kept/op")
			b.ReportMetric(stats.forks, "forks/op")
			b.ReportMetric(stats.shared, "shared_s/op")
			b.ReportMetric(float64(held)-float64(before), "keptB")
		}
	}
}
