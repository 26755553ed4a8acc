package study

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"math"
	"strconv"

	"pnps/internal/stats"
)

// Study export: per-cell and per-run scalar outcomes as CSV (for
// external plotting and post-hoc analysis) and the full aggregate —
// cells, marginals, overall summary, dwell-time quantile bands — as
// JSON. Everything works trace-free.

func formatG(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// WriteCellsCSV writes one row per matrix cell: the axis labels
// followed by the cell's aggregate. Labels are user-supplied strings,
// so rows go through encoding/csv.
func (o *StudyOutcome) WriteCellsCSV(w io.Writer) error {
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
			formatG(s.SurvivalRate),
			strconv.Itoa(s.TotalBrownouts),
			formatG(s.Stability.Mean), formatG(s.Stability.P5),
			formatG(s.Stability.Median), formatG(s.Stability.P95),
			formatG(s.Instructions.Mean),
			formatG(s.LifetimeSeconds.Mean),
			formatG(s.MinVC.Mean),
			formatG(s.StorageEnergyDeltaJ.Mean),
		)
		if c.DwellVC != nil {
			row = append(row, formatG(c.DwellVC.Median))
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

// WriteRunsCSV writes one row of scalar outcomes per ledger task: the
// task identity (index, cell, repetition, seed), the cell's axis
// labels, and the run metrics.
func (o *StudyOutcome) WriteRunsCSV(w io.Writer) error {
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
			formatG(m.LifetimeSeconds),
			formatG(m.Instructions),
			formatG(m.FinalVC),
			formatG(m.MinVC),
			formatG(m.Stability),
			formatG(m.StorageEnergyDeltaJ),
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

// WriteJSON writes the study aggregate — overall summary, per-cell and
// per-axis marginal summaries with quantile bands, and the dwell-time
// voltage quantiles when histograms ran — as indented JSON.
func (o *StudyOutcome) WriteJSON(w io.Writer) error {
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
