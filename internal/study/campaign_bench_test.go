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
// a Monte-Carlo campaign of short cloud-stressed power-neutral runs
// with trace-free aggregation (online stability, envelopes, dwell-time
// histogram). Memory per iteration is the campaign's whole footprint —
// O(runs) scalar outcomes, no series — so allocs/op and B/op here are
// the numbers the README "Performance" section quotes for trace-free
// campaigns. The meanPct5 metric pins the outcome on every record;
// retainedB/run is the heap the held outcome keeps live per run, after
// a full collection (what a study retaining thousands of runs pays).
// The work metrics (segments/op ... exact/op) sum the campaign's solver
// counters; every iteration runs the same deterministic campaign, so the
// last one stands for all.
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
				out, err := Campaign{
					Base: base, Runs: runs, Seed: 17, Workers: workers,
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
					for _, r := range out.Results {
						work.Add(r.Result.Solver)
					}
					testutil.ReportSolverWork(b, work, 1)
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
