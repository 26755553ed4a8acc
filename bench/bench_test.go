package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func loadTestSpec(t *testing.T) benchSpec {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatalf("reading BENCHMARK.json: %v", err)
	}
	return spec
}

// TestSpecMatchesCode holds BENCHMARK.json and the command in step: the
// same workloads, and the same metric names and units in each set.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadTestSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := names, workloadNames(); !slices.Equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, command has %v", got, want)
	}
	for _, set := range []struct {
		name string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(set.spec) != len(set.defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, command reports %d", set.name, len(set.spec), len(set.defs))
			continue
		}
		for i, m := range set.spec {
			if d := set.defs[i]; m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), command %s (%s)", set.name, i, m.Name, m.Unit, d.name, d.unit)
			}
		}
	}
}

// TestWorkloadsSmoke runs every workload at its reduced size, untraced
// and traced: the checks pass, and every metric of the reported set is
// emitted with its BENCHMARK.json unit.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadTestSpec(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			want := spec.EndToEnd
			if traced {
				name, want = w.name+"/traced", spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				spans := filepath.Join(dir, "spans.json")
				res, err := runWorkload(w, w.smoke, defaultSeed, 300*time.Millisecond, traced, dir, spans)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics reported, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !traced && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, got.Value)
					}
				}
				if traced {
					raw, err := os.ReadFile(spans)
					var s []Span
					if err == nil {
						err = json.Unmarshal(raw, &s)
					}
					if err != nil || len(s) == 0 {
						t.Errorf("spans file: %d spans, err %v", len(s), err)
					}
				}
			})
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	ms := make([]float64, 1000)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	l := summarise(ms)
	if l.N != 1000 || l.TailPct != 99 || l.P50 != 500.5 || abs(l.Tail-990.99) > 1e-9 {
		t.Errorf("summarise(1..1000) = %+v", l)
	}
	if l := summarise(ms[:100]); l.TailPct != 90 {
		t.Errorf("100 samples report p%g, want p90", l.TailPct)
	}
	if l := summarise(ms[:5]); l.TailPct != 50 || l.Tail != l.P50 {
		t.Errorf("5 samples: %+v, want the median as the tail", l)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "child", Start: 20, End: 50}, // overlaps the first child
		{ID: 4, Parent: 1, Name: "late", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35},
	}
	got := selfTimes(spans)
	for name, want := range map[string]layerStat{
		"parent":     {N: 1, Total: 100, Self: 50},
		"child":      {N: 2, Total: 50, Self: 40},
		"late":       {N: 1, Total: 30, Self: 30},
		"grandchild": {N: 1, Total: 10, Self: 10},
	} {
		if got[name] != want {
			t.Errorf("%s: %+v, want %+v", name, got[name], want)
		}
	}
}

// TestQuartiles pins the cut points to Python's statistics.quantiles.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 7.7}, [3]float64{1.2, 3.1, 7.7}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestCompareRuns(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(xs []float64, d float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + d
		}
		return out
	}
	for _, c := range []struct {
		name   string
		b      []float64
		better string
		bound  float64
		want   string
	}{
		{"same", steady, "lower", 0.1, "no-worse"},
		{"faster", shift(steady, -20), "lower", 0.1, "improved"},
		{"slower within bound", shift(steady, 5), "lower", 0.1, "no-worse"},
		{"slower beyond bound", shift(steady, 20), "lower", 0.1, "regressed"},
		{"throughput up", shift(steady, 20), "higher", 0.1, "improved"},
		{"throughput down", shift(steady, -20), "higher", 0.1, "regressed"},
		{"noisy", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, "lower", 0.1, "unresolved"},
		{"no bound", shift(steady, 50), "lower", 0, "-"},
	} {
		if got := compareRuns(steady, c.b, c.better, c.bound); got.verdict != c.want {
			t.Errorf("%s: verdict %s (win %.2f), want %s", c.name, got.verdict, got.win, c.want)
		}
	}
}

// TestCompareFailures: a side that fails more operations regressed, and
// a latency gain bought with failures does not count.
func TestCompareFailures(t *testing.T) {
	runs := func(latency float64, failed int) []result {
		var rs []result
		for i := 0; i < 10; i++ {
			rs = append(rs, result{Attempted: 1000, Failed: failed, Metrics: map[string]metricValue{
				"job_p50_ms": {Value: latency + float64(i%3), Unit: "ms"},
			}})
		}
		return rs
	}
	metrics := []specMetric{{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}}
	verdicts := func(a, b []result) (map[string]string, bool) {
		rows, regressed := compareWorkload(metrics, a, b)
		out := map[string]string{}
		for _, r := range rows {
			out[r.metric] = r.c.verdict
		}
		return out, regressed
	}
	got, regressed := verdicts(runs(100, 0), runs(50, 0))
	if want := "improved"; got["job_p50_ms (ms)"] != want || got["failed/attempted (share)"] != "no-worse" || regressed {
		t.Errorf("faster, no failures: %v regressed=%v, want latency %s", got, regressed, want)
	}
	got, regressed = verdicts(runs(100, 0), runs(50, 3))
	if got["job_p50_ms (ms)"] != "no-worse" || got["failed/attempted (share)"] != "regressed" || !regressed {
		t.Errorf("faster with failures: %v regressed=%v, want the gain voided and failures regressed", got, regressed)
	}
}
