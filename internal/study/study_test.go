package study

import (
	"bytes"
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

// testStudy is the shared storage × workload matrix the contract tests
// run: 2 × 2 cells, 2 repetitions each — 8 ledger tasks of a short
// cloud-stressed scenario, with the dwell histogram on so histogram
// determinism is covered too.
func testStudy(workers int) Study {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 12
	return Study{
		Name: "contract",
		Base: base,
		Axes: []Axis{
			NewAxis("storage",
				Storage("ideal", sim.IdealCap{Farads: 47e-3}),
				Storage("supercap", sim.NewSupercap(buffer.Supercap{
					Farads: 47e-3, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts,
				}))),
			NewAxis("load", Utilisation(1), Utilisation(0.6)),
		},
		Reps: 2, Seed: 23, Workers: workers,
		VCHistBins: 32, VCHistLo: 4, VCHistHi: 6,
	}
}

// sameOutcome asserts two study outcomes are bit-identical in every
// aggregate: overall summary, cells, marginals, dwell bands and
// histogram bins.
func sameOutcome(t *testing.T, label string, a, b *StudyOutcome) {
	t.Helper()
	if a.Summary != b.Summary {
		t.Fatalf("%s: overall summary diverged:\n%+v\nvs\n%+v", label, a.Summary, b.Summary)
	}
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("%s: %d vs %d cells", label, len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if a.Cells[i].Cell.Key != b.Cells[i].Cell.Key {
			t.Fatalf("%s: cell %d key %q vs %q", label, i, a.Cells[i].Cell.Key, b.Cells[i].Cell.Key)
		}
		if a.Cells[i].Summary != b.Cells[i].Summary {
			t.Fatalf("%s: cell %q summary diverged", label, a.Cells[i].Cell.Key)
		}
		ah, bh := a.Cells[i].DwellVC, b.Cells[i].DwellVC
		if (ah == nil) != (bh == nil) || (ah != nil && *ah != *bh) {
			t.Fatalf("%s: cell %q dwell band diverged", label, a.Cells[i].Cell.Key)
		}
	}
	if len(a.Marginals) != len(b.Marginals) {
		t.Fatalf("%s: marginal counts diverged", label)
	}
	for i := range a.Marginals {
		if a.Marginals[i] != b.Marginals[i] {
			t.Fatalf("%s: marginal %s=%s diverged", label, a.Marginals[i].Axis, a.Marginals[i].Level)
		}
	}
	switch {
	case a.VCHistogram == nil && b.VCHistogram == nil:
	case a.VCHistogram == nil || b.VCHistogram == nil:
		t.Fatalf("%s: one outcome lost its histogram", label)
	default:
		if a.VCHistogram.Total() != b.VCHistogram.Total() {
			t.Fatalf("%s: histogram totals diverged", label)
		}
		for i, w := range a.VCHistogram.Bins {
			if b.VCHistogram.Bins[i] != w {
				t.Fatalf("%s: histogram bin %d diverged", label, i)
			}
		}
	}
}

// TestStudyMatrixShape: the 2 × 2 matrix expands in canonical order
// (last axis fastest) with labelled cells and per-axis marginals, and
// per-cell run counts partition the ledger.
func TestStudyMatrixShape(t *testing.T) {
	out, err := testStudy(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{
		"storage=ideal load=util=1", "storage=ideal load=util=0.6",
		"storage=supercap load=util=1", "storage=supercap load=util=0.6",
	}
	if len(out.Cells) != len(wantKeys) {
		t.Fatalf("%d cells, want %d", len(out.Cells), len(wantKeys))
	}
	total := 0
	for i, c := range out.Cells {
		if c.Cell.Key != wantKeys[i] {
			t.Errorf("cell %d key %q, want %q", i, c.Cell.Key, wantKeys[i])
		}
		if c.Summary.Runs != 2 {
			t.Errorf("cell %q aggregated %d runs, want 2", c.Cell.Key, c.Summary.Runs)
		}
		if c.DwellVC == nil {
			t.Errorf("cell %q missing dwell band", c.Cell.Key)
		}
		total += c.Summary.Runs
	}
	if total != out.Summary.Runs || total != 8 {
		t.Fatalf("cells hold %d runs, study %d, want 8", total, out.Summary.Runs)
	}
	if len(out.Marginals) != 4 {
		t.Fatalf("%d marginals, want 4 (2 axes × 2 levels)", len(out.Marginals))
	}
	for _, m := range out.Marginals {
		if m.Summary.Runs != 4 {
			t.Errorf("marginal %s=%s aggregated %d runs, want 4", m.Axis, m.Level, m.Summary.Runs)
		}
	}
	if out.DwellVC == nil || out.VCHistogram == nil {
		t.Fatal("study-wide dwell summary missing")
	}
	if out.DwellVC.P5 > out.DwellVC.Median || out.DwellVC.Median > out.DwellVC.P95 {
		t.Errorf("dwell band inverted: %+v", out.DwellVC)
	}
}

// TestStudyDeterministicAcrossWorkers: the matrix aggregate is
// bit-identical at 1, 2 and 8 workers (CI runs this under -race).
func TestStudyDeterministicAcrossWorkers(t *testing.T) {
	ref, err := testStudy(1).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := testStudy(workers).Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sameOutcome(t, "workers", ref, got)
	}
}

// TestStudyShardMergeEqualsUnsharded: for several shard counts, running
// every shard separately (at varying worker counts), merging the
// checkpoints and folding them into an outcome reproduces the unsharded
// run bit for bit — the distributed-execution contract.
func TestStudyShardMergeEqualsUnsharded(t *testing.T) {
	ref, err := testStudy(0).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 8} {
		cps := make([]*Checkpoint, n)
		for i := 0; i < n; i++ {
			st := testStudy(1 + i%2) // shards need not agree on workers
			cp, err := st.RunShard(context.Background(), i, n)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			cps[i] = cp
		}
		merged, err := MergeCheckpoints(cps...)
		if err != nil {
			t.Fatalf("merge n=%d: %v", n, err)
		}
		if !merged.Complete() {
			t.Fatalf("n=%d: merged checkpoint incomplete, missing %v", n, merged.Missing())
		}
		got, err := testStudy(0).Outcome(merged)
		if err != nil {
			t.Fatalf("outcome n=%d: %v", n, err)
		}
		sameOutcome(t, "shards", ref, got)
	}
}

// TestRunShardGeometry: shard i of n is the contiguous ledger block
// [i·T/n, (i+1)·T/n), so the shards tile the ledger in order — empty
// blocks included when n > T.
func TestRunShardGeometry(t *testing.T) {
	st := testStudy(0) // T = 8
	for _, n := range []int{1, 2, 3, 5, 8, 11} {
		next := 0
		for i := 0; i < n; i++ {
			cp, err := st.RunShard(context.Background(), i, n)
			if err != nil {
				t.Fatalf("shard %d/%d: %v", i, n, err)
			}
			lo, hi := i*8/n, (i+1)*8/n
			if len(cp.Records) != hi-lo {
				t.Fatalf("shard %d/%d holds %d tasks, want [%d,%d)", i, n, len(cp.Records), lo, hi)
			}
			for k, rec := range cp.Records {
				if rec.Index != lo+k {
					t.Fatalf("shard %d/%d record %d is task %d, want %d", i, n, k, rec.Index, lo+k)
				}
			}
			if lo != next {
				t.Fatalf("shard %d/%d starts at %d, previous shard ended at %d", i, n, lo, next)
			}
			next = hi
		}
		if next != 8 {
			t.Fatalf("%d shards cover [0,%d) of 8 tasks", n, next)
		}
	}
}

// TestShardsBeyondLedgerMerge: with more shards than tasks, the empty
// shards still merge (and round-trip through the binary record) into a
// checkpoint whose outcome JSON is byte-equal to Run's.
func TestShardsBeyondLedgerMerge(t *testing.T) {
	st := testStudy(0)
	want := outcomeBytes(t, "Run")(st.Run(context.Background()))
	const n = 11
	cps := make([]*Checkpoint, n)
	empty := 0
	for i := range cps {
		cp, err := st.RunShard(context.Background(), i, n)
		if err != nil {
			t.Fatalf("shard %d/%d: %v", i, n, err)
		}
		if len(cp.Records) == 0 {
			empty++
		}
		if cps[i], err = roundTrip(cp); err != nil {
			t.Fatalf("shard %d/%d round trip: %v", i, n, err)
		}
	}
	if empty != n-8 {
		t.Fatalf("%d empty shards of %d over 8 tasks, want %d", empty, n, n-8)
	}
	merged, err := MergeCheckpoints(cps...)
	if err != nil {
		t.Fatal(err)
	}
	if got := outcomeBytes(t, "merged shards")(st.Outcome(merged)); !bytes.Equal(got, want) {
		t.Fatalf("merged outcome differs from Run:\n%s\nvs\n%s", got, want)
	}
}

// TestResumeMiddleShard: a middle shard leaves a gap on each side; one
// Resume fills both and the outcome JSON is byte-equal to Run's.
func TestResumeMiddleShard(t *testing.T) {
	st := testStudy(0)
	want := outcomeBytes(t, "Run")(st.Run(context.Background()))
	mid, err := st.RunShard(context.Background(), 1, 3) // [2,5) of 8
	if err != nil {
		t.Fatal(err)
	}
	if got := mid.Missing(); len(got) != 2 || got[0] != (TaskRange{0, 2}) || got[1] != (TaskRange{5, 8}) {
		t.Fatalf("middle shard misses %v, want [[0,2) [5,8)]", got)
	}
	full, err := st.Resume(context.Background(), mid)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete() {
		t.Fatalf("resume left ranges missing: %v", full.Missing())
	}
	if got := outcomeBytes(t, "resumed")(st.Outcome(full)); !bytes.Equal(got, want) {
		t.Fatalf("resumed outcome differs from Run:\n%s\nvs\n%s", got, want)
	}
}

// TestStudyCheckpointResume: an interrupted study (one shard of three)
// serialises, round-trips through JSON, reports its missing ranges,
// resumes, and the completed checkpoint's outcome matches the unsharded
// run bit for bit.
func TestStudyCheckpointResume(t *testing.T) {
	st := testStudy(0)
	partial, err := st.RunShard(context.Background(), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Complete() {
		t.Fatal("one shard of three cannot be complete")
	}
	if _, err := st.Outcome(partial); err == nil ||
		!strings.Contains(err.Error(), "missing task ranges") {
		t.Fatalf("incomplete outcome error = %v, want missing-ranges report", err)
	}

	// The binary round-trip preserves the ledger exactly.
	var buf bytes.Buffer
	if err := partial.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Records) != len(partial.Records) || restored.Total != partial.Total {
		t.Fatalf("round-trip lost records: %d/%d vs %d/%d",
			len(restored.Records), restored.Total, len(partial.Records), partial.Total)
	}
	for i := range partial.Records {
		if restored.Records[i].Metrics != partial.Records[i].Metrics {
			t.Fatalf("record %d metrics changed across the binary round-trip", i)
		}
	}

	full, err := st.Resume(context.Background(), restored)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Complete() {
		t.Fatalf("resume left ranges missing: %v", full.Missing())
	}
	got, err := st.Outcome(full)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "resume", ref, got)
}

// TestStudyCheckpointSafety: merges refuse overlapping shards and
// checkpoints from different studies; Outcome refuses a foreign
// checkpoint.
func TestStudyCheckpointSafety(t *testing.T) {
	st := testStudy(0)
	a, err := st.RunShard(context.Background(), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints(a, a); err == nil ||
		!strings.Contains(err.Error(), "overlap") {
		t.Fatalf("overlapping merge error = %v", err)
	}
	other := st
	other.Seed++
	b, err := other.RunShard(context.Background(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints(a, b); err == nil ||
		!strings.Contains(err.Error(), "different studies") {
		t.Fatalf("cross-study merge error = %v", err)
	}
	if _, err := other.Outcome(a); err == nil {
		t.Fatal("foreign checkpoint accepted by Outcome")
	}

	// The base spec is part of the fingerprint: a shard cut from a
	// different duration of the "same" matrix must refuse to merge.
	longer := st
	longer.Base.Duration = st.Base.Duration * 2
	c, err := longer.RunShard(context.Background(), 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeCheckpoints(a, c); err == nil ||
		!strings.Contains(err.Error(), "different studies") {
		t.Fatalf("cross-duration merge error = %v", err)
	}
}

// TestStudySeedModes: SeedPerTask decorrelates every run, SeedPerRep
// pairs repetitions across cells (common random numbers), SeedShared
// holds the realisation fixed everywhere.
func TestStudySeedModes(t *testing.T) {
	st := testStudy(0)
	st.Reps = 2

	st.SeedMode = SeedPerTask
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int64]bool{}
	for _, r := range out.Results {
		if want := batch.Seed(st.Seed, r.Task.Index); r.Task.Seed != want {
			t.Fatalf("task %d seed %d, want %d", r.Task.Index, r.Task.Seed, want)
		}
		seen[r.Task.Seed] = true
	}
	if len(seen) != len(out.Results) {
		t.Fatal("per-task seeds collided")
	}

	st.SeedMode = SeedPerRep
	out, err = st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Results {
		if want := batch.Seed(st.Seed, r.Task.Rep); r.Task.Seed != want {
			t.Fatalf("paired task %d seed %d, want rep-derived %d", r.Task.Index, r.Task.Seed, want)
		}
	}

	st.SeedMode = SeedShared
	out, err = st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range out.Results {
		if r.Task.Seed != st.Seed {
			t.Fatalf("shared-seed task %d got seed %d", r.Task.Index, r.Task.Seed)
		}
	}
}

// TestStudyPlanValidation: malformed matrices are rejected up front.
func TestStudyPlanValidation(t *testing.T) {
	base := scenario.MustLookup("steady-sun")
	cases := []struct {
		name string
		st   Study
		want string
	}{
		{"unnamed axis", Study{Base: base, Axes: []Axis{NewAxis("", Utilisation(1))}}, "needs a name"},
		{"empty axis", Study{Base: base, Axes: []Axis{NewAxis("x")}}, "no levels"},
		{"duplicate axis", Study{Base: base, Axes: []Axis{
			NewAxis("x", Utilisation(1)), NewAxis("x", Utilisation(0.5)),
		}}, "duplicate axis"},
		{"duplicate level", Study{Base: base, Axes: []Axis{
			NewAxis("x", Utilisation(1), Utilisation(1)),
		}}, "duplicate level"},
		{"nil setter", Study{Base: base, Axes: []Axis{
			NewAxis("x", Level{Label: "a"}),
		}}, "no setter"},
		{"bad hist bounds", Study{Base: base, VCHistBins: 8, VCHistLo: 6, VCHistHi: 4}, "invalid"},
	}
	for _, tc := range cases {
		if _, err := tc.st.Run(context.Background()); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := testStudy(0).RunShard(context.Background(), 3, 3); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := testStudy(0).RunShard(context.Background(), 0, 0); err == nil {
		t.Error("zero shard count accepted")
	}
}

// supercapVsIdeal is the paper's storage comparison as a study axis:
// the ideal 47 mF capacitor against a real supercap bank with ESR and
// leakage.
func supercapVsIdeal() Axis {
	return NewAxis("storage",
		Storage("ideal", sim.IdealCap{Farads: 47e-3}),
		Storage("supercap", sim.NewSupercap(buffer.Supercap{
			Farads: 47e-3, ESROhms: 0.05, LeakOhms: 5000, VMax: soc.MaxOperatingVolts,
		})))
}

// TestCampaignDeterministicAcrossWorkers: a supercap-vs-ideal
// Monte-Carlo study must produce bit-identical outcomes and per-run
// results at 1, 2 and 8 workers (CI runs this under -race).
func TestCampaignDeterministicAcrossWorkers(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 20
	mk := func(workers int) *StudyOutcome {
		out, err := Study{
			Base: base, Axes: []Axis{supercapVsIdeal()}, Reps: 3, Seed: 99, Workers: workers,
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

// TestCampaignTraceFreeDeterministicAndBounded: a Monte-Carlo study
// retains no series on any run, still reports real within-band
// stability and supply envelopes, and its full aggregate — cells,
// marginals and the merged dwell-time voltage histogram — is
// bit-identical at 1, 2 and 8 workers.
func TestCampaignTraceFreeDeterministicAndBounded(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 15
	mk := func(workers int) *StudyOutcome {
		out, err := Study{
			Base: base, Axes: []Axis{supercapVsIdeal()}, Reps: 4, Seed: 5, Workers: workers,
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
			t.Fatalf("run %d retained a series in a trace-free study", r.Task.Index)
		}
		if s := r.Result.StabilityWithin(0.05); math.IsNaN(s) || s < 0 || s > 1 {
			t.Fatalf("run %d stability %.3f — online band missing or broken", r.Task.Index, s)
		}
	}
	if n := ref.Summary.Stability.N; n != 8 {
		t.Fatalf("stability aggregated over %d runs, want 8", n)
	}
	if ref.Summary.Stability.P25 > ref.Summary.Stability.P75 {
		t.Error("stability quantile band inverted")
	}
	if len(ref.Cells) != 2 || ref.Cells[0].Cell.Key != "storage=ideal" || ref.Cells[1].Cell.Key != "storage=supercap" {
		t.Fatalf("cells = %+v, want [storage=ideal storage=supercap]", ref.Cells)
	}
	if ref.Cells[0].Summary.Runs+ref.Cells[1].Summary.Runs != ref.Summary.Runs {
		t.Error("cell run counts do not partition the study")
	}
	for i, m := range ref.Marginals {
		if m.Summary != ref.Cells[i].Summary {
			t.Errorf("one-axis marginal %s=%s differs from its cell", m.Axis, m.Level)
		}
	}
	if ref.VCHistogram == nil || ref.VCHistogram.Total() <= 0 {
		t.Fatal("merged VC histogram missing")
	}
	for _, workers := range []int{2, 8} {
		sameOutcome(t, fmt.Sprintf("workers=%d", workers), ref, mk(workers))
	}
}

// TestCampaignCustomBandsKeepSummary: overriding StabilityBands with a
// list that omits ±5% must not poison the headline Summary.Stability —
// the summary band is always accumulated alongside the custom ones.
func TestCampaignCustomBandsKeepSummary(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 10
	out, err := Study{
		Base: base, Reps: 3, Seed: 9, StabilityBands: []float64{0.02},
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

// TestCampaignStabilityMatchesSeries: the online stability and supply
// minimum a trace-free study aggregates are bit-identical to those
// derived from the series of the same seeds run with series kept.
func TestCampaignStabilityMatchesSeries(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 15
	free, err := Study{Base: base, Reps: 4, Seed: 11}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	kept := newSummaryAccum(len(free.Results))
	for _, r := range free.Results {
		res, err := base.Run(r.Task.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if res.VC == nil {
			t.Fatal("series run did not retain series")
		}
		kept.add(metricsFrom(res))
	}
	ks, err := kept.summary()
	if err != nil {
		t.Fatal(err)
	}
	testutil.RequireEqual(t, "trace-free vs series-derived stability",
		free.Summary.Stability, ks.Stability)
	if free.Summary.MinVC != ks.MinVC {
		t.Error("trace-free MinVC diverged from the series-retaining runs")
	}
}

// TestCampaignExport: a Monte-Carlo study's runs CSV has one row per
// run led by its task identity, and its JSON aggregate carries the
// summary and dwell-time band without NaN.
func TestCampaignExport(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 10
	out, err := Study{
		Base: base, Reps: 3, Seed: 3,
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
	if !strings.HasPrefix(lines[0], "task,cell,rep,seed,survived,") {
		t.Errorf("CSV header %q", lines[0])
	}
	if want := fmt.Sprintf("1,0,1,%d,", batch.Seed(3, 1)); !strings.HasPrefix(lines[2], want) {
		t.Errorf("CSV row %q does not start with its task identity %q", lines[2], want)
	}
	if strings.Contains(csv.String(), "NaN") {
		t.Error("CSV contains NaN — an online observer did not run")
	}
	var js strings.Builder
	if err := out.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"survival_rate"`, `"stability_pct5"`, `"p25"`, `"dwell_vc"`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON missing %s", want)
		}
	}
	if strings.Contains(js.String(), "NaN") {
		t.Error("JSON contains bare NaN")
	}
}

// TestCampaignSeedsDecorrelated: a single-cell study still varies its
// runs — each gets an independent weather realisation from its derived
// seed.
func TestCampaignSeedsDecorrelated(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 20
	out, err := Study{Base: base, Reps: 4, Seed: 7}.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Runs != 4 {
		t.Fatalf("summary counted %d runs, want 4", out.Summary.Runs)
	}
	seen := map[float64]bool{}
	for k, r := range out.Results {
		if want := batch.Seed(7, k); r.Task.Seed != want {
			t.Errorf("run %d seed %d, want %d", k, r.Task.Seed, want)
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
	run := func(st sim.Storage) *StudyOutcome {
		b := base
		b.Storage = st
		out, err := Study{Base: b, Reps: 3, Seed: 42}.Run(context.Background())
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
