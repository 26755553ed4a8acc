package study

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"testing"

	"pnps/internal/scenario"
	"pnps/internal/stats"
)

// The reference renderers: the reflection-based encoding/json and
// encoding/csv exports the hand-written appenders replaced, kept
// verbatim as the definition of the bytes every export path must
// produce.

func refFormatG(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

func refWriteCellsCSV(o *StudyOutcome, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, 0, len(o.Axes)+12)
	for _, ax := range o.Axes {
		header = append(header, ax.Name)
	}
	header = append(header, "runs", "survival_rate", "brownouts",
		"stability_mean", "stability_p5", "stability_median", "stability_p95",
		"instructions_mean", "lifetime_s_mean", "min_vc_v_mean",
		"storage_denergy_j_mean", "dwell_vc_median")
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, c := range o.Cells {
		row := append([]string(nil), c.Cell.Labels...)
		s := c.Summary
		row = append(row,
			strconv.Itoa(s.Runs),
			refFormatG(s.SurvivalRate),
			strconv.Itoa(s.TotalBrownouts),
			refFormatG(s.Stability.Mean), refFormatG(s.Stability.P5),
			refFormatG(s.Stability.Median), refFormatG(s.Stability.P95),
			refFormatG(s.Instructions.Mean),
			refFormatG(s.LifetimeSeconds.Mean),
			refFormatG(s.MinVC.Mean),
			refFormatG(s.StorageEnergyDeltaJ.Mean),
		)
		if c.DwellVC != nil {
			row = append(row, refFormatG(c.DwellVC.Median))
		} else {
			row = append(row, "")
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func refWriteRunsCSV(o *StudyOutcome, w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"task", "cell", "rep", "seed"}
	for _, ax := range o.Axes {
		header = append(header, ax.Name)
	}
	header = append(header, "survived", "brownouts", "lifetime_s", "instructions",
		"final_vc_v", "min_vc_v", "stability_pct5", "storage_denergy_j")
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range o.Results {
		r := &o.Results[i]
		row := []string{
			strconv.Itoa(r.Task.Index),
			strconv.Itoa(r.Task.Cell),
			strconv.Itoa(r.Task.Rep),
			strconv.FormatInt(r.Task.Seed, 10),
		}
		row = append(row, o.Cells[r.Task.Cell].Cell.Labels...)
		m := r.Metrics
		row = append(row,
			strconv.FormatBool(m.Survived),
			strconv.Itoa(m.Brownouts),
			refFormatG(m.LifetimeSeconds),
			refFormatG(m.Instructions),
			refFormatG(m.FinalVC),
			refFormatG(m.MinVC),
			refFormatG(m.Stability),
			refFormatG(m.StorageEnergyDeltaJ),
		)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonSummary mirrors stats.Summary with JSON-safe values (JSON has no
// NaN; missing measurements marshal as null).
type jsonSummary struct {
	N      int      `json:"n"`
	Min    *float64 `json:"min"`
	Max    *float64 `json:"max"`
	Mean   *float64 `json:"mean"`
	StdDev *float64 `json:"stddev"`
	P5     *float64 `json:"p5"`
	P25    *float64 `json:"p25"`
	Median *float64 `json:"median"`
	P75    *float64 `json:"p75"`
	P95    *float64 `json:"p95"`
}

func jsonNum(x float64) *float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return nil
	}
	return &x
}

func toJSONSummary(s stats.Summary) jsonSummary {
	return jsonSummary{
		N: s.N, Min: jsonNum(s.Min), Max: jsonNum(s.Max),
		Mean: jsonNum(s.Mean), StdDev: jsonNum(s.StdDev),
		P5: jsonNum(s.P5), P25: jsonNum(s.P25), Median: jsonNum(s.Median),
		P75: jsonNum(s.P75), P95: jsonNum(s.P95),
	}
}

type jsonAggregate struct {
	Runs                int         `json:"runs"`
	SurvivalRate        float64     `json:"survival_rate"`
	TotalBrownouts      int         `json:"total_brownouts"`
	Stability           jsonSummary `json:"stability_pct5"`
	Instructions        jsonSummary `json:"instructions"`
	LifetimeSeconds     jsonSummary `json:"lifetime_s"`
	FinalVC             jsonSummary `json:"final_vc_v"`
	MinVC               jsonSummary `json:"min_vc_v"`
	StorageEnergyDeltaJ jsonSummary `json:"storage_denergy_j"`
}

func toJSONAggregate(s Summary) jsonAggregate {
	return jsonAggregate{
		Runs: s.Runs, SurvivalRate: s.SurvivalRate, TotalBrownouts: s.TotalBrownouts,
		Stability:           toJSONSummary(s.Stability),
		Instructions:        toJSONSummary(s.Instructions),
		LifetimeSeconds:     toJSONSummary(s.LifetimeSeconds),
		FinalVC:             toJSONSummary(s.FinalVC),
		MinVC:               toJSONSummary(s.MinVC),
		StorageEnergyDeltaJ: toJSONSummary(s.StorageEnergyDeltaJ),
	}
}

type jsonBand struct {
	P5     float64 `json:"p5"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
	P95    float64 `json:"p95"`
}

func toJSONBand(b *QuantileBand) *jsonBand {
	if b == nil {
		return nil
	}
	return &jsonBand{P5: b.P5, P25: b.P25, Median: b.Median, P75: b.P75, P95: b.P95}
}

type jsonCell struct {
	Labels map[string]string `json:"labels"`
	Key    string            `json:"key"`
	jsonAggregate
	DwellVC *jsonBand `json:"dwell_vc,omitempty"`
}

type jsonMarginal struct {
	Axis  string `json:"axis"`
	Level string `json:"level"`
	jsonAggregate
}

type jsonStudy struct {
	Axes      []AxisDigest   `json:"axes,omitempty"`
	Summary   jsonAggregate  `json:"summary"`
	DwellVC   *jsonBand      `json:"dwell_vc,omitempty"`
	Cells     []jsonCell     `json:"cells"`
	Marginals []jsonMarginal `json:"marginals,omitempty"`
}

func refWriteJSON(o *StudyOutcome, w io.Writer) error {
	doc := jsonStudy{
		Axes:    o.Axes,
		Summary: toJSONAggregate(o.Summary),
		DwellVC: toJSONBand(o.DwellVC),
	}
	for _, c := range o.Cells {
		labels := make(map[string]string, len(o.Axes))
		for i, ax := range o.Axes {
			labels[ax.Name] = c.Cell.Labels[i]
		}
		doc.Cells = append(doc.Cells, jsonCell{
			Labels: labels, Key: c.Cell.Key,
			jsonAggregate: toJSONAggregate(c.Summary),
			DwellVC:       toJSONBand(c.DwellVC),
		})
	}
	for _, m := range o.Marginals {
		doc.Marginals = append(doc.Marginals, jsonMarginal{
			Axis: m.Axis, Level: m.Level, jsonAggregate: toJSONAggregate(m.Summary),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// checkRender requires every export of o to equal the reference
// renderers' bytes, and the JSON export to fail exactly when the
// reference fails, with the same message and nothing written.
func checkRender(t *testing.T, o *StudyOutcome) {
	t.Helper()
	var want bytes.Buffer
	wantErr := refWriteJSON(o, &want)
	var got bytes.Buffer
	gotErr := o.WriteJSON(&got)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("WriteJSON error %v, reference error %v", gotErr, wantErr)
	case wantErr != nil && gotErr.Error() != wantErr.Error():
		t.Fatalf("WriteJSON error %q, reference error %q", gotErr, wantErr)
	case wantErr != nil && got.Len() != 0:
		t.Fatalf("failed WriteJSON wrote %d bytes", got.Len())
	case !bytes.Equal(got.Bytes(), want.Bytes()):
		t.Fatalf("JSON differs from the reference:\n%s\nvs\n%s", got.Bytes(), want.Bytes())
	}
	for _, f := range []struct {
		name string
		ref  func(*StudyOutcome, io.Writer) error
		got  func(io.Writer) error
	}{
		{"cells CSV", refWriteCellsCSV, o.WriteCellsCSV},
		{"runs CSV", refWriteRunsCSV, o.WriteRunsCSV},
	} {
		want.Reset()
		got.Reset()
		if err := f.ref(o, &want); err != nil {
			t.Fatal(err)
		}
		if err := f.got(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s differs from the reference:\n%q\nvs\n%q", f.name, got.Bytes(), want.Bytes())
		}
	}
}

// TestExportMatchesReference renders simulated outcomes — the contract
// matrix with dwell bands and marginals, and a study without axes —
// and outcomes whose values reach the edges of the formats.
func TestExportMatchesReference(t *testing.T) {
	base := scenario.MustLookup("stress-clouds")
	base.Duration = 4
	for _, st := range []Study{testStudy(0), {Base: base, Reps: 3, Seed: 3}} {
		out, err := st.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		checkRender(t, out)
	}

	nan, inf := math.NaN(), math.Inf(1)
	edge := func() *StudyOutcome {
		o := &StudyOutcome{
			Axes: []AxisDigest{
				{Name: "z<&>", Levels: []string{"\u2028", "bad\xff"}},
				{Name: "a\"b", Levels: nil},
				{Name: "z<&>", Levels: []string{}},
			},
			Summary: Summary{Runs: 2, SurvivalRate: 1e-7, Stability: stats.Summary{
				N: 2, Min: nan, Max: inf, Mean: -inf, StdDev: 1e21, P5: 1e-6,
				P25: 9.99e-7, Median: -0.0, P75: 123456789012345678, P95: 5e-324,
			}},
			DwellVC: &QuantileBand{P5: 3, P25: 4, Median: 4.5, P75: 5, P95: 1e300},
		}
		o.Cells = []CellOutcome{{
			Cell:    Cell{Labels: []string{" lead", "a,b\r\n", `\.`}, Key: "k\t\b\f\x01"},
			DwellVC: &QuantileBand{Median: math.MaxFloat64},
		}}
		o.Marginals = []Marginal{{Axis: "\u2029", Level: "\u00a0nbsp"}}
		o.Results = []TaskResult{{Task: Task{Seed: math.MinInt64}, Metrics: RunMetrics{
			Survived: true, FinalVC: nan, MinVC: -inf,
		}}}
		return o
	}
	checkRender(t, edge())
	for _, mutate := range []func(o *StudyOutcome){
		func(o *StudyOutcome) { o.Summary.SurvivalRate = nan },
		func(o *StudyOutcome) { o.Cells[0].Summary.SurvivalRate = -inf },
		func(o *StudyOutcome) { o.DwellVC.P25 = inf },
		func(o *StudyOutcome) { o.Cells[0].DwellVC.P95 = nan },
		func(o *StudyOutcome) { o.Marginals[0].Summary.SurvivalRate = nan },
	} {
		o := edge()
		mutate(o)
		if _, err := o.AppendJSON(nil); err == nil {
			t.Fatal("a non-finite plain float rendered")
		}
		checkRender(t, o)
	}
	checkRender(t, &StudyOutcome{})
	checkRender(t, &StudyOutcome{Axes: []AxisDigest{}, Cells: []CellOutcome{{}}})
}

// fuzzReader draws an outcome's parts from fuzz bytes; an exhausted
// input reads as zeros.
type fuzzReader struct{ b []byte }

func (r *fuzzReader) byte() byte {
	if len(r.b) == 0 {
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *fuzzReader) n(max int) int { return int(r.byte()) % max }

// fuzzStrings are labels that exercise every escaping rule of both
// formats.
var fuzzStrings = []string{
	"", "storage", "ideal:0.047", "a<b>&c", "q\"uote\\back", "tab\tnl\ncr\r",
	"\b\f\x00\x1f\x7f", "ls\u2028ps\u2029", "bad\xff\xfeutf8", "\xe2\x80",
	" lead", "\u00a0nbsp", "\u3000wide", `\.`, "a,b", "héllo", "\U0001f600",
}

func (r *fuzzReader) str() string {
	sel := r.byte()
	if sel < 0x80 {
		return fuzzStrings[int(sel)%len(fuzzStrings)]
	}
	n := int(sel & 0x0f)
	if n > len(r.b) {
		n = len(r.b)
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// fuzzFloats straddle encoding/json's 'e' thresholds and hold the
// values JSON cannot represent.
var fuzzFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 4.2, 1e-6, 9.999999999999999e-7,
	-1e-7, 1e-9, 1e21, 9.999999999999999e20, -1e22, 1e20, 123456789.123,
	5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
}

func (r *fuzzReader) float() float64 {
	sel := r.byte()
	if sel < 0xc0 {
		return fuzzFloats[int(sel)%len(fuzzFloats)]
	}
	var raw [8]byte
	for i := range raw {
		raw[i] = r.byte()
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
}

func (r *fuzzReader) int() int { return int(int8(r.byte())) }

func (r *fuzzReader) stats() stats.Summary {
	return stats.Summary{
		N: r.int(), Min: r.float(), Max: r.float(), Mean: r.float(), StdDev: r.float(),
		Median: r.float(), P5: r.float(), P95: r.float(), P25: r.float(), P75: r.float(),
	}
}

func (r *fuzzReader) summary() Summary {
	return Summary{
		Runs: r.int(), SurvivalRate: r.float(), TotalBrownouts: r.int(),
		Stability: r.stats(), Instructions: r.stats(), LifetimeSeconds: r.stats(),
		FinalVC: r.stats(), MinVC: r.stats(), StorageEnergyDeltaJ: r.stats(),
	}
}

func (r *fuzzReader) band() *QuantileBand {
	if r.byte()&1 == 0 {
		return nil
	}
	return &QuantileBand{P5: r.float(), P25: r.float(), Median: r.float(), P75: r.float(), P95: r.float()}
}

// outcome builds a StudyOutcome: zero or more axes (nil, empty or
// labelled levels, names possibly repeated), cells carrying one label
// per axis, marginals and runs of those cells.
func (r *fuzzReader) outcome() *StudyOutcome {
	o := &StudyOutcome{}
	if nAxes := r.n(4); nAxes > 0 || r.byte()&1 == 1 {
		o.Axes = make([]AxisDigest, nAxes)
	}
	for i := range o.Axes {
		ax := AxisDigest{Name: r.str()}
		switch r.n(3) {
		case 1:
			ax.Levels = []string{}
		case 2:
			for n := 1 + r.n(3); n > 0; n-- {
				ax.Levels = append(ax.Levels, r.str())
			}
		}
		if i > 0 && r.byte()&3 == 0 {
			ax.Name = o.Axes[r.n(i)].Name
		}
		o.Axes[i] = ax
	}
	o.Summary = r.summary()
	o.DwellVC = r.band()
	for c := r.n(4); c > 0; c-- {
		cell := CellOutcome{Cell: Cell{Index: len(o.Cells), Labels: make([]string, len(o.Axes)), Key: r.str()}}
		for i := range cell.Cell.Labels {
			cell.Cell.Labels[i] = r.str()
		}
		cell.Summary = r.summary()
		cell.DwellVC = r.band()
		o.Cells = append(o.Cells, cell)
	}
	for m := r.n(3); m > 0; m-- {
		o.Marginals = append(o.Marginals, Marginal{Axis: r.str(), Level: r.str(), Summary: r.summary()})
	}
	if len(o.Cells) > 0 {
		for k := r.n(5); k > 0; k-- {
			var seed [8]byte
			for i := range seed {
				seed[i] = r.byte()
			}
			o.Results = append(o.Results, TaskResult{
				Task: Task{Index: r.int(), Cell: r.n(len(o.Cells)), Rep: r.int(), Seed: int64(binary.LittleEndian.Uint64(seed[:]))},
				Metrics: RunMetrics{
					Survived: r.byte()&1 == 1, Brownouts: r.int(),
					LifetimeSeconds: r.float(), Instructions: r.float(), FinalVC: r.float(),
					MinVC: r.float(), Stability: r.float(), StorageEnergyDeltaJ: r.float(),
				},
			})
		}
	}
	return o
}

// FuzzOutcomeRender builds study outcomes from fuzz bytes and requires
// the JSON and both CSV exports to reproduce the reflection-based
// reference renderers exactly: the same bytes, and for JSON the same
// failure on a non-finite plain float.
func FuzzOutcomeRender(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0x81, 'x', 2, 3, 4, 5, 6, 7, 1, 1, 9, 1, 2, 3, 3, 3, 3})
	all := make([]byte, 1024)
	for i := range all {
		all[i] = byte(i * 7)
	}
	f.Add(all)
	finite := bytes.Repeat([]byte{2, 1, 0x85, '<', '\xff', '&', '"', 0x0a, 5}, 120)
	f.Add(finite)
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRender(t, (&fuzzReader{b: data}).outcome())
	})
}
