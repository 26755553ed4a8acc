package study

import (
	"context"
	"fmt"
	"testing"

	"pnps/internal/scenario"
)

// BenchmarkCampaignTraceFree is the campaign-scale hot-path benchmark:
// a Monte-Carlo campaign of short cloud-stressed power-neutral runs
// with trace-free aggregation (online stability, envelopes, dwell-time
// histogram). Memory per iteration is the campaign's whole footprint —
// O(runs) scalar outcomes, no series — so allocs/op and B/op here are
// the numbers the README "Performance" section quotes for trace-free
// campaigns. The meanPct5 metric pins the outcome on every record.
func BenchmarkCampaignTraceFree(b *testing.B) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 10
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := Campaign{
					Base: base, Runs: 32, Seed: 17, Workers: workers,
					VCHistBins: 64, VCHistLo: 4.0, VCHistHi: 6.0,
				}.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				if i == b.N-1 {
					b.ReportMetric(out.Summary.Stability.Mean*100, "meanPct5")
				}
			}
		})
	}
}
