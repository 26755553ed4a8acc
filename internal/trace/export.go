package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteCSV writes one or more series as aligned CSV columns. Each series is
// resampled onto the union of sample times via linear interpolation, so the
// output always has a single monotone "t" column followed by one column per
// series (header "name[unit]").
func WriteCSV(w io.Writer, series ...*Series) error {
	if len(series) == 0 {
		return fmt.Errorf("trace: WriteCSV needs at least one series")
	}
	// Union of all sample times.
	seen := make(map[float64]struct{})
	var times []float64
	for _, s := range series {
		for _, t := range s.times {
			if _, ok := seen[t]; !ok {
				seen[t] = struct{}{}
				times = append(times, t)
			}
		}
	}
	if len(times) == 0 {
		return ErrEmpty
	}
	sortFloat64s(times)

	cw := csv.NewWriter(w)
	header := make([]string, 0, len(series)+1)
	header = append(header, "t")
	for _, s := range series {
		name := s.Name
		if name == "" {
			name = "value"
		}
		if s.Unit != "" {
			name += "[" + s.Unit + "]"
		}
		header = append(header, name)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(series)+1)
	for _, t := range times {
		row[0] = strconv.FormatFloat(t, 'g', -1, 64)
		for i, s := range series {
			v, err := s.Interp(t)
			if err != nil {
				return err
			}
			row[i+1] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func sortFloat64s(xs []float64) {
	// Insertion-free: use sort.Float64s via small wrapper to avoid extra import churn.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// ASCIIPlot renders the series as a crude fixed-size ASCII chart suitable
// for terminal reports. width and height are in character cells; values are
// linearly binned in both axes.
func ASCIIPlot(s *Series, width, height int) string {
	if s.Len() == 0 || width < 2 || height < 2 {
		return "(empty)\n"
	}
	minV, _ := s.Min()
	maxV, _ := s.Max()
	if maxV == minV {
		maxV = minV + 1
	}
	t0, _ := s.First()
	t1, _ := s.Last()
	if t1 == t0 {
		t1 = t0 + 1
	}
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", width))
	}
	for i := 0; i < s.Len(); i++ {
		t, v := s.At(i)
		x := int(float64(width-1) * (t - t0) / (t1 - t0))
		y := int(float64(height-1) * (v - minV) / (maxV - minV))
		row := height - 1 - y
		if x >= 0 && x < width && row >= 0 && row < height {
			grid[row][x] = '*'
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s [%s]  min=%.4g max=%.4g\n", s.Name, s.Unit, minV, maxV)
	for _, line := range grid {
		b.WriteString("|")
		b.Write(line)
		b.WriteString("|\n")
	}
	fmt.Fprintf(&b, " t: %.4g .. %.4g s\n", t0, t1)
	return b.String()
}
