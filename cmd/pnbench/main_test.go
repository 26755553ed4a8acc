package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func f64(v float64) *float64 { return &v }

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

// TestCompareReportsWorkMetrics: the solver work counts are gated like
// allocs/op — any increase fails, a decrease or an equal count passes,
// and other custom metrics (stability, per-solve ratios) are not gated.
func TestCompareReportsWorkMetrics(t *testing.T) {
	work := func(rhs, newton, pct float64) Result {
		return Result{Name: "BenchmarkW", Package: "p", NsPerOp: 1000, AllocsPerOp: f64(5),
			Metrics: map[string]float64{"rhs/op": rhs, "newton/op": newton, "meanPct5": pct}}
	}
	prev := Report{Results: []Result{work(100, 50, 90)}}
	for _, c := range []struct {
		name string
		cur  Result
		want []string
	}{
		{"flat", work(100, 50, 90), nil},
		{"fewer", work(99, 40, 10), nil},
		{"one more rhs", work(101, 50, 90), []string{"rhs/op 100 -> 101"}},
		{"both up", work(200, 51, 95), []string{"rhs/op 100 -> 200", "newton/op 50 -> 51"}},
	} {
		regs := compareReports(prev, Report{Results: []Result{c.cur}})
		if len(regs) != len(c.want) {
			t.Fatalf("%s: got %v, want %d regressions", c.name, regs, len(c.want))
		}
		for i, w := range c.want {
			if !strings.Contains(regs[i], w) || !strings.Contains(regs[i], "any increase fails") {
				t.Errorf("%s: diagnostic %q, want %q", c.name, regs[i], w)
			}
		}
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

// TestCompareReportsMissingBaseline: a baseline benchmark absent from a
// run of the same -bench regex fails the gate; a run of a different
// regex legitimately covers a different set and is not judged on it.
func TestCompareReportsMissingBaseline(t *testing.T) {
	prev := Report{Bench: "BenchmarkA|BenchmarkB", Results: []Result{
		{Name: "BenchmarkA", Package: "p", NsPerOp: 1000},
		{Name: "BenchmarkB", Package: "p", NsPerOp: 1000},
	}}
	a := Result{Name: "BenchmarkA", Package: "p", NsPerOp: 1000}
	b := Result{Name: "BenchmarkB", Package: "p", NsPerOp: 1000}
	cases := []struct {
		name    string
		cur     Report
		missing bool
	}{
		{"missing", Report{Bench: prev.Bench, Results: []Result{a}}, true},
		{"present", Report{Bench: prev.Bench, Results: []Result{a, b}}, false},
		{"different regex", Report{Bench: "BenchmarkA", Results: []Result{a}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			regs := compareReports(prev, c.cur)
			if !c.missing {
				if len(regs) != 0 {
					t.Fatalf("unexpected failures: %v", regs)
				}
				return
			}
			if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkB") ||
				!strings.Contains(regs[0], "regenerate the baseline if it was removed") {
				t.Fatalf("missing-benchmark diagnostic: %v", regs)
			}
		})
	}
}

// TestDefaultBenchNamesExistingBenchmarks: every benchmark the default
// set names must be declared somewhere in the module, so a deleted or
// renamed benchmark cannot linger in the regex matching nothing.
func TestDefaultBenchNamesExistingBenchmarks(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var src strings.Builder
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Nested modules are outside `go test ./...` of this one.
			if path != root {
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if strings.HasSuffix(path, "_test.go") {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			src.Write(raw)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range strings.Split(defaultBench, "|") {
		if !strings.Contains(src.String(), "func "+name+"(b *testing.B)") {
			t.Errorf("defaultBench names %s, which no test file in the module declares", name)
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
		"BenchmarkCampaignTraceFree/workers=4 \t 3\t 11937706 ns/op\t 22.02 meanPct5\t 452954 B/op\t 1453 allocs/op", "p")
	if !ok {
		t.Fatal("line rejected")
	}
	if r.Metrics["meanPct5"] != 22.02 {
		t.Errorf("custom metric: %+v", r.Metrics)
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
