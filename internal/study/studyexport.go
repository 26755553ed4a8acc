package study

import (
	"io"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf8"

	"pnps/internal/jsonw"
	"pnps/internal/stats"
)

// Study export: per-cell and per-run scalar outcomes as CSV (for
// external plotting and post-hoc analysis) and the full aggregate —
// cells, marginals, overall summary, dwell-time quantile bands — as
// JSON. Everything works trace-free.
//
// The appenders write each format by hand, without reflection, and
// their bytes are exactly those encoding/json and encoding/csv wrote
// for the same outcome when those packages rendered it (the reference
// renderers and the differential fuzz target in the tests pin this).

// WriteCellsCSV writes one row per matrix cell: the axis labels
// followed by the cell's aggregate.
func (o *StudyOutcome) WriteCellsCSV(w io.Writer) error {
	_, err := w.Write(o.AppendCellsCSV(nil))
	return err
}

// WriteRunsCSV writes one row of scalar outcomes per ledger task: the
// task identity (index, cell, repetition, seed), the cell's axis
// labels, and the run metrics.
func (o *StudyOutcome) WriteRunsCSV(w io.Writer) error {
	_, err := w.Write(o.AppendRunsCSV(nil))
	return err
}

// WriteJSON writes the study aggregate — overall summary, per-cell and
// per-axis marginal summaries with quantile bands, and the dwell-time
// voltage quantiles when histograms ran — as indented JSON. A NaN or
// infinite survival rate or quantile band fails it and writes nothing;
// a summary statistic that is not finite is written as null.
func (o *StudyOutcome) WriteJSON(w io.Writer) error {
	b, err := o.AppendJSON(nil)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

const (
	cellsCSVTail = "runs,survival_rate,brownouts," +
		"stability_mean,stability_p5,stability_median,stability_p95," +
		"instructions_mean,lifetime_s_mean,min_vc_v_mean," +
		"storage_denergy_j_mean,dwell_vc_median\n"
	runsCSVHead = "task,cell,rep,seed,"
	runsCSVTail = "survived,brownouts,lifetime_s,instructions," +
		"final_vc_v,min_vc_v,stability_pct5,storage_denergy_j\n"
)

// Size hints: typical bytes per element of each rendering, measured on
// stress-matrix outcomes (about 2 350 per JSON aggregate, 150 per run
// row and 200 per cell row before labels) and rounded up, so that a
// rendering into a nil slice allocates once and rarely wastes more than
// a tenth of it.
const (
	hintJSONAggregate = 2500
	hintRunRow        = 160
	hintCellRow       = 210
)

// AppendCellsCSV appends the WriteCellsCSV rendering to dst.
func (o *StudyOutcome) AppendCellsCSV(dst []byte) []byte {
	n := len(cellsCSVTail) + o.axisNamesLen()
	for i := range o.Cells {
		n += hintCellRow + len(o.Cells[i].Cell.Key)
	}
	dst = slices.Grow(dst, n)
	dst = o.appendAxisNames(dst)
	dst = append(dst, cellsCSVTail...)
	for i := range o.Cells {
		c := &o.Cells[i]
		for _, l := range c.Cell.Labels {
			dst = append(appendCSVField(dst, l), ',')
		}
		s := &c.Summary
		dst = strconv.AppendInt(dst, int64(s.Runs), 10)
		dst = appendCSVFloat(dst, s.SurvivalRate)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(s.TotalBrownouts), 10)
		for _, x := range [...]float64{
			s.Stability.Mean, s.Stability.P5, s.Stability.Median, s.Stability.P95,
			s.Instructions.Mean, s.LifetimeSeconds.Mean, s.MinVC.Mean,
			s.StorageEnergyDeltaJ.Mean,
		} {
			dst = appendCSVFloat(dst, x)
		}
		dst = append(dst, ',')
		if c.DwellVC != nil {
			dst = strconv.AppendFloat(dst, c.DwellVC.Median, 'g', -1, 64)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// AppendRunsCSV appends the WriteRunsCSV rendering to dst.
func (o *StudyOutcome) AppendRunsCSV(dst []byte) []byte {
	// A cell's key holds its labels, each with an axis name and a
	// separator: an upper bound on a row's label fields.
	n := len(runsCSVHead) + o.axisNamesLen() + len(runsCSVTail)
	for i := range o.Results {
		n += hintRunRow + len(o.Cells[o.Results[i].Task.Cell].Cell.Key)
	}
	dst = slices.Grow(dst, n)
	dst = append(dst, runsCSVHead...)
	dst = o.appendAxisNames(dst)
	dst = append(dst, runsCSVTail...)
	for i := range o.Results {
		r := &o.Results[i]
		dst = strconv.AppendInt(dst, int64(r.Task.Index), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.Task.Cell), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(r.Task.Rep), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, r.Task.Seed, 10)
		dst = append(dst, ',')
		for _, l := range o.Cells[r.Task.Cell].Cell.Labels {
			dst = append(appendCSVField(dst, l), ',')
		}
		m := &r.Metrics
		dst = strconv.AppendBool(dst, m.Survived)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(m.Brownouts), 10)
		for _, x := range [...]float64{
			m.LifetimeSeconds, m.Instructions, m.FinalVC, m.MinVC,
			m.Stability, m.StorageEnergyDeltaJ,
		} {
			dst = appendCSVFloat(dst, x)
		}
		dst = append(dst, '\n')
	}
	return dst
}

// appendAxisNames appends each axis name as a CSV field followed by a
// comma.
func (o *StudyOutcome) appendAxisNames(dst []byte) []byte {
	for _, ax := range o.Axes {
		dst = append(appendCSVField(dst, ax.Name), ',')
	}
	return dst
}

func (o *StudyOutcome) axisNamesLen() int {
	n := 0
	for _, ax := range o.Axes {
		n += len(ax.Name) + 1
	}
	return n
}

// appendCSVFloat appends a comma and x in strconv's shortest 'g' form.
// A number never needs CSV quoting.
func appendCSVFloat(dst []byte, x float64) []byte {
	return strconv.AppendFloat(append(dst, ','), x, 'g', -1, 64)
}

// appendCSVField appends one field as encoding/csv's Writer writes it
// with its defaults (comma separator, LF line ends): quoted, inner
// quotes doubled, when it holds a quote, comma, CR or LF, is exactly
// `\.`, or begins with a Unicode space; verbatim otherwise.
func appendCSVField(dst []byte, field string) []byte {
	if !csvNeedsQuotes(field) {
		return append(dst, field...)
	}
	dst = append(dst, '"')
	for i := 0; i < len(field); i++ {
		if field[i] == '"' {
			dst = append(dst, '"')
		}
		dst = append(dst, field[i])
	}
	return append(dst, '"')
}

func csvNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		switch field[i] {
		case '\n', '\r', '"', ',':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r)
}

// AppendJSON appends the WriteJSON rendering to dst. On error it
// returns dst unchanged.
func (o *StudyOutcome) AppendJSON(dst []byte) ([]byte, error) {
	n := hintJSONAggregate * (1 + len(o.Cells) + len(o.Marginals))
	for _, ax := range o.Axes {
		n += 32 + len(ax.Name)
		for _, l := range ax.Levels {
			n += 8 + len(l)
		}
	}
	for i := range o.Cells {
		// The key and the labels object both spell the labels out.
		n += 2 * len(o.Cells[i].Cell.Key)
	}
	w := jsonw.NewWriter(slices.Grow(dst, n), true)
	w.BeginObject()
	if len(o.Axes) > 0 {
		w.Key("axes")
		w.BeginArray()
		for _, ax := range o.Axes {
			w.BeginObject()
			w.Key("name")
			w.String(ax.Name)
			w.Key("levels")
			if ax.Levels == nil {
				w.Null()
			} else {
				w.BeginArray()
				for _, l := range ax.Levels {
					w.String(l)
				}
				w.EndArray()
			}
			w.EndObject()
		}
		w.EndArray()
	}
	w.Key("summary")
	w.BeginObject()
	appendAggregate(&w, &o.Summary)
	w.EndObject()
	appendBand(&w, o.DwellVC)
	w.Key("cells")
	if len(o.Cells) == 0 {
		w.Null()
	} else {
		// Labels are an object keyed by axis name: names sorted, and a
		// repeated name keeps the later axis's label.
		var orderBuf [8]int
		order := labelOrder(o.Axes, orderBuf[:0])
		w.BeginArray()
		for i := range o.Cells {
			c := &o.Cells[i]
			w.BeginObject()
			w.Key("labels")
			w.BeginObject()
			for _, a := range order {
				w.Key(o.Axes[a].Name)
				w.String(c.Cell.Labels[a])
			}
			w.EndObject()
			w.Key("key")
			w.String(c.Cell.Key)
			appendAggregate(&w, &c.Summary)
			appendBand(&w, c.DwellVC)
			w.EndObject()
		}
		w.EndArray()
	}
	if len(o.Marginals) > 0 {
		w.Key("marginals")
		w.BeginArray()
		for i := range o.Marginals {
			m := &o.Marginals[i]
			w.BeginObject()
			w.Key("axis")
			w.String(m.Axis)
			w.Key("level")
			w.String(m.Level)
			appendAggregate(&w, &m.Summary)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
	if err := w.Err(); err != nil {
		return dst, err
	}
	return append(w.B, '\n'), nil
}

// labelOrder returns the indices of the axes whose names key a cell's
// labels object, in key order: sorted by name, and of axes sharing a
// name only the last.
func labelOrder(axes []AxisDigest, order []int) []int {
	for i := range axes {
		j := 0
		for j < len(order) && axes[order[j]].Name < axes[i].Name {
			j++
		}
		if j < len(order) && axes[order[j]].Name == axes[i].Name {
			order[j] = i
			continue
		}
		order = append(order, 0)
		copy(order[j+1:], order[j:])
		order[j] = i
	}
	return order
}

// appendAggregate writes a Summary's members into the open object.
func appendAggregate(w *jsonw.Writer, s *Summary) {
	w.Key("runs")
	w.Int(s.Runs)
	w.Key("survival_rate")
	w.Float(s.SurvivalRate)
	w.Key("total_brownouts")
	w.Int(s.TotalBrownouts)
	appendSummary(w, "stability_pct5", &s.Stability)
	appendSummary(w, "instructions", &s.Instructions)
	appendSummary(w, "lifetime_s", &s.LifetimeSeconds)
	appendSummary(w, "final_vc_v", &s.FinalVC)
	appendSummary(w, "min_vc_v", &s.MinVC)
	appendSummary(w, "storage_denergy_j", &s.StorageEnergyDeltaJ)
}

// appendSummary writes a stats.Summary member. JSON has no NaN: a
// missing measurement is null.
func appendSummary(w *jsonw.Writer, key string, s *stats.Summary) {
	w.Key(key)
	w.BeginObject()
	w.Key("n")
	w.Int(s.N)
	w.Key("min")
	w.FloatOrNull(s.Min)
	w.Key("max")
	w.FloatOrNull(s.Max)
	w.Key("mean")
	w.FloatOrNull(s.Mean)
	w.Key("stddev")
	w.FloatOrNull(s.StdDev)
	w.Key("p5")
	w.FloatOrNull(s.P5)
	w.Key("p25")
	w.FloatOrNull(s.P25)
	w.Key("median")
	w.FloatOrNull(s.Median)
	w.Key("p75")
	w.FloatOrNull(s.P75)
	w.Key("p95")
	w.FloatOrNull(s.P95)
	w.EndObject()
}

// appendBand writes the dwell_vc member when the band is present.
func appendBand(w *jsonw.Writer, b *QuantileBand) {
	if b == nil {
		return
	}
	w.Key("dwell_vc")
	w.BeginObject()
	w.Key("p5")
	w.Float(b.P5)
	w.Key("p25")
	w.Float(b.P25)
	w.Key("median")
	w.Float(b.Median)
	w.Key("p75")
	w.Float(b.P75)
	w.Key("p95")
	w.Float(b.P95)
	w.EndObject()
}
