package study

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"pnps/internal/batch"
	"pnps/internal/buffer"
	"pnps/internal/pv"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
	"pnps/internal/testutil"
)

// supercapVsIdeal alternates runs between the ideal 47 mF capacitor and
// a real supercap bank with ESR and leakage — the paper's storage
// comparison as a Monte-Carlo campaign.
func supercapVsIdeal(k int, _ int64, s *scenario.Spec) {
	if k%2 == 0 {
		s.Storage = sim.IdealCap{Farads: 47e-3}
		return
	}
	s.Storage = sim.NewSupercap(buffer.Supercap{
		Farads: 47e-3, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts,
	})
}

// TestCampaignDeterministicAcrossWorkers: the supercap-vs-ideal campaign
// must produce bit-identical outcomes at 1, 2 and 8 workers (CI runs
// this under -race).
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 20
	mk := func(workers int) *Outcome {
		out, err := Campaign{
			Base: base, Runs: 6, Seed: 99, Vary: supercapVsIdeal, Workers: workers,
		}.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	ref := mk(1)
	for _, workers := range []int{2, 8} {
		got := mk(workers)
		testutil.RequireEqual(t, fmt.Sprintf("workers=%d summary", workers), got.Summary, ref.Summary)
		for i := range ref.Results {
			testutil.RequireEqualResults(t, fmt.Sprintf("workers=%d run %d", workers, i),
				got.Results[i].Result, ref.Results[i].Result)
		}
	}
}

// TestCampaignTraceFreeDeterministicAndBounded: the default (trace-
// free) campaign retains no series on any run, still reports real
// within-band stability and supply envelopes, and its full aggregate —
// including the merged dwell-time voltage histogram — is bit-identical
// at 1, 2 and 8 workers.
func TestCampaignTraceFreeDeterministicAndBounded(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 15
	mk := func(workers int) *Outcome {
		out, err := Campaign{
			Base: base, Runs: 8, Seed: 5, Vary: supercapVsIdeal, Workers: workers,
			Group: func(k int, _ int64, _ scenario.Spec) string {
				if k%2 == 0 {
					return "ideal"
				}
				return "supercap"
			},
			VCHistBins: 64, VCHistLo: 4.0, VCHistHi: 6.0,
		}.Run(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return out
	}
	ref := mk(1)
	for _, r := range ref.Results {
		if r.Result.VC != nil {
			t.Fatalf("run %d retained a series in a trace-free campaign", r.Index)
		}
		if s := r.Result.StabilityWithin(0.05); math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("run %d stability %.3f — online band missing or broken", r.Index, s)
		}
	}
	if n := ref.Summary.Stability.N; n != 8 {
		t.Fatalf("stability aggregated over %d runs, want 8", n)
	}
	if ref.Summary.Stability.P25 > ref.Summary.Stability.P75 {
		t.Error("stability quantile band inverted")
	}
	if len(ref.Groups) != 2 || ref.Groups[0].Name != "ideal" || ref.Groups[1].Name != "supercap" {
		t.Fatalf("groups = %+v, want [ideal supercap] in first-occurrence order", ref.Groups)
	}
	if ref.Groups[0].Summary.Runs+ref.Groups[1].Summary.Runs != ref.Summary.Runs {
		t.Error("group run counts do not partition the campaign")
	}
	if ref.VCHistogram == nil || ref.VCHistogram.Total() <= 0 {
		t.Fatal("merged VC histogram missing")
	}
	for _, workers := range []int{2, 8} {
		got := mk(workers)
		testutil.RequireEqual(t, fmt.Sprintf("workers=%d summary", workers), got.Summary, ref.Summary)
		for i := range ref.Groups {
			testutil.RequireEqual(t, fmt.Sprintf("workers=%d group %q", workers, ref.Groups[i].Name),
				got.Groups[i], ref.Groups[i])
		}
		for i, w := range ref.VCHistogram.Bins {
			testutil.RequireEqual(t, fmt.Sprintf("workers=%d histogram bin %d", workers, i),
				got.VCHistogram.Bins[i], w)
		}
	}
}

// TestCampaignCustomBandsKeepSummary: overriding StabilityBands with a
// list that omits ±5% must not poison the headline Summary.Stability —
// the summary band is always accumulated alongside the custom ones.
func TestCampaignCustomBandsKeepSummary(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 10
	out, err := Campaign{
		Base: base, Runs: 3, Seed: 9, StabilityBands: []float64{0.02},
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(out.Summary.Stability.Mean) {
		t.Fatal("custom bands without 0.05 poisoned Summary.Stability with NaN")
	}
	for _, r := range out.Results {
		if s := r.Result.StabilityWithin(0.02); math.IsNaN(s) {
			t.Fatal("requested custom band did not run")
		}
		if s := r.Result.StabilityWithin(0.05); math.IsNaN(s) {
			t.Fatal("summary band missing from run")
		}
	}
}

// TestCampaignStabilityMatchesKeepSeries: the online stability the
// trace-free campaign aggregates is bit-identical to the series-derived
// stability of the same campaign with KeepSeries.
func TestCampaignStabilityMatchesKeepSeries(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 15
	mk := func(keep bool) *Outcome {
		out, err := Campaign{Base: base, Runs: 4, Seed: 11, KeepSeries: keep}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	free, kept := mk(false), mk(true)
	if kept.Results[0].Result.VC == nil {
		t.Fatal("KeepSeries campaign did not retain series")
	}
	testutil.RequireEqual(t, "trace-free vs series-derived stability",
		free.Summary.Stability, kept.Summary.Stability)
	if free.Summary.MinVC != kept.Summary.MinVC {
		t.Error("trace-free MinVC diverged from series-retaining campaign")
	}
}

// TestCampaignExport: the CSV has one row per run with the group label,
// and the JSON aggregate round-trips without NaN.
func TestCampaignExport(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 10
	out, err := Campaign{
		Base: base, Runs: 3, Seed: 3,
		Group:      func(k int, _ int64, _ scenario.Spec) string { return "g" },
		VCHistBins: 16, VCHistLo: 4, VCHistHi: 6,
	}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	if err := out.WriteRunsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want header + 3 runs", len(lines))
	}
	if !strings.HasPrefix(lines[0], "run,seed,group,") {
		t.Errorf("CSV header %q", lines[0])
	}
	if !strings.Contains(lines[1], ",g,") {
		t.Errorf("CSV row missing group label: %q", lines[1])
	}
	if strings.Contains(csv.String(), "NaN") {
		t.Error("CSV contains NaN — an online observer did not run")
	}
	var js strings.Builder
	if err := out.WriteSummaryJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"survival_rate"`, `"stability_pct5"`, `"p25"`, `"groups"`, `"vc_histogram"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	if strings.Contains(js.String(), "NaN") {
		t.Error("JSON contains bare NaN")
	}
}

// TestCampaignSeedsDecorrelated: with no Variant, runs still differ —
// each gets an independent weather realisation from its derived seed.
func TestCampaignSeedsDecorrelated(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 20
	out, err := Campaign{Base: base, Runs: 4, Seed: 7}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Runs != 4 {
		t.Fatalf("summary counted %d runs, want 4", out.Summary.Runs)
	}
	seen := map[float64]bool{}
	for k, r := range out.Results {
		if want := batch.Seed(7, k); r.Seed != want {
			t.Errorf("run %d seed %d, want %d", k, r.Seed, want)
		}
		seen[r.Result.Instructions] = true
	}
	if len(seen) < 2 {
		t.Error("all runs produced identical work — seeds not decorrelated")
	}
	if out.Summary.Instructions.Min > out.Summary.Instructions.Mean ||
		out.Summary.Instructions.Mean > out.Summary.Instructions.Max {
		t.Error("summary ordering broken")
	}
}

// TestCampaignSupercapPaysForParasitics: on an open-loop (static, no
// controller phase effects) run of the same weather, a leaky bank's
// supply trajectory is bounded above by the lossless capacitor's, so it
// never ends a run with more stored energy. Under closed-loop control
// this need not hold per run — the controller adapts to the lossy
// trajectory — which is exactly why the storage belongs in the live ODE.
func TestCampaignSupercapPaysForParasitics(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 20
	base.Control = scenario.Uncontrolled() // static MinOPP: event-free
	base.Profile = func(seed int64, span float64) pv.Profile {
		// Shallow clouds: deep occlusions would brown out even MinOPP.
		return pv.NewClouds(pv.Constant(800), pv.PartialSun(span), seed)
	}
	run := func(st sim.Storage) *Outcome {
		b := base
		b.Storage = st
		out, err := Campaign{Base: b, Runs: 3, Seed: 42}.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ideal := run(sim.IdealCap{Farads: 47e-3})
	lossy := run(sim.NewSupercap(buffer.Supercap{
		Farads: 47e-3, ESROhms: 0.05, LeakOhms: 100, VMax: soc.MaxOperatingVolts,
	}))
	for i := range ideal.Results {
		a, b := ideal.Results[i].Result, lossy.Results[i].Result
		if a.BrownedOut || b.BrownedOut {
			t.Fatalf("run %d browned out — comparison requires an event-free scenario", i)
		}
		if b.StorageEnergyEndJ > a.StorageEnergyEndJ {
			t.Errorf("run %d: lossy bank ended with %.3f J > ideal %.3f J",
				i, b.StorageEnergyEndJ, a.StorageEnergyEndJ)
		}
	}
}
