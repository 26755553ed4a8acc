package main

import (
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

func TestParseEngine(t *testing.T) {
	cases := []struct {
		name, engine string
		width        int
	}{
		{"BenchmarkCampaignTraceFree/workers=1/engine=scalar", "scalar", 0},
		{"BenchmarkCampaignTraceFree/workers=1/engine=batched-w8", "batched", 8},
		{"BenchmarkCampaignTraceFree/workers=4/engine=batched-w8-4", "batched", 8},
		{"BenchmarkStorageDispatch/ideal-8", "", 0},
	}
	for _, c := range cases {
		eng, w := parseEngine(c.name)
		if eng != c.engine || w != c.width {
			t.Errorf("parseEngine(%q) = (%q, %d), want (%q, %d)", c.name, eng, w, c.engine, c.width)
		}
	}
}

func TestCompareReports(t *testing.T) {
	prev := Report{Results: []Result{
		{Name: "BenchmarkA", Package: "p", NsPerOp: 1000, AllocsPerOp: f64(10)},
		{Name: "BenchmarkB", Package: "p", NsPerOp: 1000, AllocsPerOp: f64(10)},
		{Name: "BenchmarkC", Package: "p", NsPerOp: 1000},
	}}
	cur := Report{Results: []Result{
		// Within tolerance, allocs flat: clean.
		{Name: "BenchmarkA", Package: "p", NsPerOp: 1100, AllocsPerOp: f64(10)},
		// Alloc regression (any increase) AND ns regression (>15%).
		{Name: "BenchmarkB", Package: "p", NsPerOp: 1200, AllocsPerOp: f64(11)},
		// Faster: never a regression.
		{Name: "BenchmarkC", Package: "p", NsPerOp: 500},
		// New benchmark with no baseline: skipped.
		{Name: "BenchmarkD", Package: "p", NsPerOp: 9e9, AllocsPerOp: f64(1e6)},
	}}
	regs := compareReports(prev, cur)
	if len(regs) != 2 {
		t.Fatalf("got %d regressions (%v), want 2", len(regs), regs)
	}
	if !strings.Contains(regs[0], "allocs/op") || !strings.Contains(regs[0], "BenchmarkB") {
		t.Errorf("alloc regression diagnostic: %q", regs[0])
	}
	if !strings.Contains(regs[1], "ns/op") || !strings.Contains(regs[1], "BenchmarkB") {
		t.Errorf("ns regression diagnostic: %q", regs[1])
	}
	if got := compareReports(prev, prev); len(got) != 0 {
		t.Errorf("self-comparison reported regressions: %v", got)
	}
}

func TestBenchtimeMismatch(t *testing.T) {
	if msg, ok := benchtimeMismatch("50x", "50x"); !ok || msg != "" {
		t.Errorf("matching benchtimes refused: %q", msg)
	}
	if msg, ok := benchtimeMismatch("5x", "50x"); ok || !strings.Contains(msg, "5x") || !strings.Contains(msg, "50x") {
		t.Errorf("mismatched benchtimes: ok=%v msg=%q", ok, msg)
	}
	if msg, ok := benchtimeMismatch("", "50x"); ok || !strings.Contains(msg, "no benchtime") {
		t.Errorf("legacy baseline without benchtime: ok=%v msg=%q", ok, msg)
	}
}

func TestDefaultBenchCoversBatchKernels(t *testing.T) {
	// The README-quoted set must include the lockstep micro-benchmarks so
	// the CI allocs gate watches Round and SolveLanes steady state.
	for _, want := range []string{"BenchmarkBatchRound", "BenchmarkSolveLanes", "BenchmarkCampaignTraceFree", "BenchmarkScenarioAssemble"} {
		if !strings.Contains(defaultBench, want) {
			t.Errorf("defaultBench is missing %s", want)
		}
	}
}

func TestParseBenchLine(t *testing.T) {
	pkg := "pnps/internal/sim"
	r, ok := parseBenchLine(
		"BenchmarkStorageDispatch/ideal-8         \t       5\t   7502666 ns/op\t    6177 B/op\t      31 allocs/op", pkg)
	if !ok {
		t.Fatal("benchmark line rejected")
	}
	if r.Name != "BenchmarkStorageDispatch/ideal-8" || r.Package != pkg {
		t.Errorf("identity: %+v", r)
	}
	if r.Iterations != 5 || r.NsPerOp != 7502666 {
		t.Errorf("timing: %+v", r)
	}
	if r.BytesPerOp == nil || *r.BytesPerOp != 6177 || r.AllocsPerOp == nil || *r.AllocsPerOp != 31 {
		t.Errorf("memory: %+v", r)
	}
}

func TestParseBenchLineCustomMetrics(t *testing.T) {
	r, ok := parseBenchLine(
		"BenchmarkCampaignTraceFree/workers=4/engine=batched-w8 \t 3\t 11937706 ns/op\t 22.02 meanPct5\t 452954 B/op\t 1453 allocs/op", "p")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Metrics["meanPct5"] != 22.02 {
		t.Errorf("custom metric: %+v", r.Metrics)
	}
	if r.Engine != "batched" || r.BatchWidth != 8 {
		t.Errorf("engine attribution: %+v", r)
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"",
		"goos: linux",
		"PASS",
		"ok  \tpnps/internal/sim\t0.12s",
		"BenchmarkBroken",                     // no fields
		"BenchmarkNoTiming-8 \t 10\t 42 B/op", // pairs but no ns/op
		"Benchmark bad iteration count x ns/op",
	} {
		if _, ok := parseBenchLine(line, ""); ok {
			t.Errorf("accepted %q", line)
		}
	}
}

func TestParseBenchOutputTracksPackages(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: pnps/internal/sim
cpu: Intel
BenchmarkA-8   	 10	 100 ns/op
PASS
pkg: pnps/internal/scenario
BenchmarkB-8   	 20	 200 ns/op	 5 B/op	 1 allocs/op
PASS
`
	rs := parseBenchOutput(out)
	if len(rs) != 2 {
		t.Fatalf("parsed %d results, want 2", len(rs))
	}
	if rs[0].Package != "pnps/internal/sim" || rs[1].Package != "pnps/internal/scenario" {
		t.Errorf("package attribution: %+v", rs)
	}
	if rs[0].BytesPerOp != nil || rs[1].BytesPerOp == nil {
		t.Error("benchmem fields mis-parsed")
	}
}
