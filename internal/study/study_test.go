package study

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"pnps/internal/batch"
	"pnps/internal/buffer"
	"pnps/internal/scenario"
	"pnps/internal/sim"
	"pnps/internal/soc"
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

// TestStudyGroups: the ad-hoc Group hook aggregates into per-label
// summaries on the study outcome itself (first-occurrence ledger
// order), surviving the checkpoint path identically.
func TestStudyGroups(t *testing.T) {
	st := testStudy(0)
	st.Group = func(rep int, _ int64, _ scenario.Spec) string {
		if rep == 0 {
			return "first-sky"
		}
		return "later-skies"
	}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Groups) != 2 || out.Groups[0].Name != "first-sky" || out.Groups[1].Name != "later-skies" {
		t.Fatalf("groups = %+v, want [first-sky later-skies]", out.Groups)
	}
	if out.Groups[0].Summary.Runs+out.Groups[1].Summary.Runs != out.Summary.Runs {
		t.Error("group run counts do not partition the study")
	}
	cp, err := st.RunShard(context.Background(), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Outcome(cp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out.Groups {
		if got.Groups[i] != out.Groups[i] {
			t.Fatalf("group %q diverged through the checkpoint path", out.Groups[i].Name)
		}
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

// TestStudyCampaignEquivalence: a Campaign and its single-cell Study
// counterpart execute the identical ledger — same seeds, same per-run
// results — pinning the campaign re-implementation to the engine.
func TestStudyCampaignEquivalence(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 12
	camp, err := Campaign{Base: base, Runs: 4, Seed: 31, VCHistBins: 16, VCHistLo: 4, VCHistHi: 6}.
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := Study{Base: base, Reps: 4, Seed: 31, VCHistBins: 16, VCHistLo: 4, VCHistHi: 6}
	out, err := st.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary != camp.Summary {
		t.Fatalf("single-cell study summary diverged from campaign:\n%+v\nvs\n%+v",
			out.Summary, camp.Summary)
	}
	for i := range camp.Results {
		if camp.Results[i].Seed != out.Results[i].Task.Seed {
			t.Fatalf("run %d seeds diverged", i)
		}
		if metricsFrom(camp.Results[i].Result) != out.Results[i].Metrics {
			t.Fatalf("run %d metrics diverged", i)
		}
	}
	for i, w := range camp.VCHistogram.Bins {
		if out.VCHistogram.Bins[i] != w {
			t.Fatalf("histogram bin %d diverged", i)
		}
	}
}
