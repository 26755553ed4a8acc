// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a pure function from (parameters, seed)
// to a Report containing the same rows/series the paper plots, alongside
// the paper's reported values where it states them, so paper-vs-measured
// comparisons are mechanical.
//
// Index (IDs() lists them, as does pnsim -list): Fig1, Fig3, Fig4, Fig6,
// Fig7, Fig10, Table1, Fig11, Fig12, Fig13, Fig14, Table2, Fig15,
// ParamSweep, ablations.
package experiments

import (
	"fmt"
	"strings"

	"pnps/internal/trace"
)

// Metric is one scalar result, optionally paired with the paper's value.
type Metric struct {
	Name  string
	Value float64
	Unit  string
	// Paper is the value the paper reports for this quantity; NaN or 0
	// with HasPaper=false means the paper gives none.
	Paper    float64
	HasPaper bool
	// Note carries a caveat (e.g. "shape target, not absolute").
	Note string
}

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Report is the output of one experiment.
type Report struct {
	ID          string
	Title       string
	Description string
	Metrics     []Metric
	Tables      []Table
	// Series holds the plottable signals (exported as CSV by cmd/pnsim).
	Series []*trace.Series
	// Plots are pre-rendered ASCII charts for terminal output.
	Plots []string
}

// AddMetric appends a metric without a paper reference.
func (r *Report) AddMetric(name string, value float64, unit, note string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit, Note: note})
}

// AddPaperMetric appends a metric together with the paper's reported value.
func (r *Report) AddPaperMetric(name string, value, paper float64, unit, note string) {
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: unit,
		Paper: paper, HasPaper: true, Note: note})
}

// String renders the report for terminal consumption.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	if r.Description != "" {
		fmt.Fprintf(&b, "%s\n", r.Description)
	}
	if len(r.Metrics) > 0 {
		b.WriteString("\nMetrics:\n")
		for _, m := range r.Metrics {
			fmt.Fprintf(&b, "  %-42s %12.4g %-6s", m.Name, m.Value, m.Unit)
			if m.HasPaper {
				fmt.Fprintf(&b, " (paper: %.4g)", m.Paper)
			}
			if m.Note != "" {
				fmt.Fprintf(&b, "  [%s]", m.Note)
			}
			b.WriteByte('\n')
		}
	}
	for _, t := range r.Tables {
		fmt.Fprintf(&b, "\n%s\n", t.Title)
		writeTable(&b, t)
	}
	for _, p := range r.Plots {
		b.WriteByte('\n')
		b.WriteString(p)
	}
	return b.String()
}

func writeTable(b *strings.Builder, t Table) {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", widths[i]))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
}
