package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the working directory or, when the
// command runs from bench/, its parent.
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	raw, err := os.ReadFile("BENCHMARK.json")
	if os.IsNotExist(err) {
		raw, err = os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	}
	if err != nil {
		return spec, err
	}
	return spec, json.Unmarshal(raw, &spec)
}

// loadResults reads the *.json result files of a directory: each holds
// the output of one run (the last JSON line counts) and is named after
// its workload, e.g. campaign-long-seed3.json. Runs are returned per
// workload in file-name order, so two directories with the same names
// pair run for run.
func loadResults(dir string, workloads []string) (map[string][]result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	// Longest name first, so a workload named as a prefix of another
	// cannot claim its files.
	byLen := append([]string(nil), workloads...)
	sort.Slice(byLen, func(i, j int) bool { return len(byLen[i]) > len(byLen[j]) })
	out := map[string][]result{}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		w := ""
		for _, name := range byLen {
			if strings.HasPrefix(e.Name(), name) {
				w = name
				break
			}
		}
		if w == "" {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		res, ok := lastResult(raw)
		if !ok {
			return nil, fmt.Errorf("%s: no result line", e.Name())
		}
		out[w] = append(out[w], res)
	}
	return out, nil
}

func lastResult(raw []byte) (result, bool) {
	var res result
	found := false
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var r result
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 && line[0] == '{' && json.Unmarshal(line, &r) == nil && r.Metrics != nil {
			res, found = r, true
		}
	}
	return res, found
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(xs, n=4), the spread measure of the acceptance
// check.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return [3]float64{quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)}
}

// comparison is one workload × metric row of -compare.
type comparison struct {
	a, b       [3]float64 // quartiles
	medA, medB float64
	win        float64 // share of run pairs the second side won
	verdict    string
}

// compareRuns judges runs b (the change) against runs a (the parent)
// following the choosing-metrics rules: a gain needs nine tenths of the
// pairs and a median shift beyond the parent's quartile spread; a spread
// wider than the bound is unresolved unless every run of the change is
// better than every run of the parent; otherwise a median worse by more
// than the bound is a regression. A metric without a bound gets no
// verdict.
func compareRuns(a, b []float64, better string, bound float64) comparison {
	c := comparison{a: quartiles(a), b: quartiles(b), medA: median(a), medB: median(b)}
	sign := 1.0 // positive differences are worse
	if better == "higher" {
		sign = -1
	}
	isBetter := func(x, y float64) bool { return (x-y)*sign < 0 } // x better than y
	wins, pairs := 0, min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if isBetter(b[i], a[i]) {
			wins++
		}
	}
	c.win = ratio(float64(wins), float64(pairs))
	if bound <= 0 {
		c.verdict = "-"
		return c
	}
	allBetter := len(a) > 0 && len(b) > 0
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && isBetter(x, y)
		}
	}
	spread := func(q [3]float64, med float64) float64 { return ratio(q[2]-q[0], abs(med)) }
	gain := c.win >= 0.9 && (c.medA-c.medB)*sign > c.a[2]-c.a[0]
	worse := ratio((c.medB-c.medA)*sign, abs(c.medA))
	switch {
	case allBetter && gain:
		c.verdict = "improved"
	case allBetter:
		c.verdict = "no-worse"
	case spread(c.a, c.medA) > bound || spread(c.b, c.medB) > bound:
		c.verdict = "unresolved"
	case worse > bound:
		c.verdict = "regressed"
	case gain:
		c.verdict = "improved"
	default:
		c.verdict = "no-worse"
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// failShare is the share of a side's attempted operations that failed,
// over all its runs of one workload.
func failShare(runs []result) float64 {
	var attempted, failed int
	for _, r := range runs {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}

// compareDirs prints one row per workload × metric found in both
// directories, plus each workload's failure share, and fails when any
// row regressed.
func compareDirs(dirA, dirB string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(stderr, "bench: reading BENCHMARK.json: %v\n", err)
		return 2
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	runsA, err := loadResults(dirA, names)
	if err == nil {
		var runsB map[string][]result
		if runsB, err = loadResults(dirB, names); err == nil {
			return printComparison(stdout, spec, names, runsA, runsB)
		}
	}
	fmt.Fprintf(stderr, "bench: %v\n", err)
	return 2
}

// compareWorkload judges one workload's metrics, B against A, and
// returns one row per metric both sides report. A rise in the share of
// failed operations (the result lines' failed over attempted) is a
// regression of the workload whatever its timings say, and voids its
// gains: a faster run that fails more did not get better.
func compareWorkload(metrics []specMetric, ra, rb []result) (rows []compareRow, regressed bool) {
	failA, failB := failShare(ra), failShare(rb)
	moreFailures := failB > failA
	for _, m := range metrics {
		a, b := values(ra, m.Name), values(rb, m.Name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		c := compareRuns(a, b, m.Better, m.Bound)
		if moreFailures && c.verdict == "improved" {
			c.verdict = "no-worse"
		}
		regressed = regressed || c.verdict == "regressed"
		rows = append(rows, compareRow{m.Name + " (" + m.Unit + ")", c})
	}
	failures := comparison{medA: failA, medB: failB, verdict: "no-worse"}
	failures.a = [3]float64{failA, failA, failA}
	failures.b = [3]float64{failB, failB, failB}
	if moreFailures {
		failures.verdict = "regressed"
		regressed = true
	}
	return append(rows, compareRow{"failed/attempted (share)", failures}), regressed
}

// compareRow is one printed line of -compare.
type compareRow struct {
	metric string
	c      comparison
}

func printComparison(w io.Writer, spec benchSpec, workloads []string, runsA, runsB map[string][]result) int {
	regressed := false
	fmt.Fprintf(w, "%-15s %-32s %-34s %-34s %5s  %s\n", "workload", "metric",
		"A median [q1, q3]", "B median [q1, q3]", "win", "verdict")
	metrics := append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...)
	for _, wl := range workloads {
		ra, rb := runsA[wl], runsB[wl]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		rows, worse := compareWorkload(metrics, ra, rb)
		regressed = regressed || worse
		for _, row := range rows {
			c := row.c
			fmt.Fprintf(w, "%-15s %-32s %-34s %-34s %5.2f  %s\n", wl, row.metric,
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.medA, c.a[0], c.a[2]),
				fmt.Sprintf("%.5g [%.5g, %.5g]", c.medB, c.b[0], c.b[2]), c.win, c.verdict)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func values(runs []result, name string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}
