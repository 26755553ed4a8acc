package trace

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func mkSeries(pts ...[2]float64) *Series {
	s := NewSeries("test", "V")
	for _, p := range pts {
		s.Append(p[0], p[1])
	}
	return s
}

func TestAppendStrict(t *testing.T) {
	s := NewSeries("x", "")
	if err := s.AppendStrict(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStrict(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendStrict(0.5, 3); err == nil {
		t.Error("out-of-order append accepted")
	}
	if s.Len() != 2 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestMinMaxMean(t *testing.T) {
	s := mkSeries([2]float64{0, 3}, [2]float64{1, 1}, [2]float64{2, 5})
	if m, _ := s.Min(); m != 1 {
		t.Errorf("min %g", m)
	}
	if m, _ := s.Max(); m != 5 {
		t.Errorf("max %g", m)
	}
	if m, _ := s.Mean(); m != 3 {
		t.Errorf("mean %g", m)
	}
	empty := NewSeries("e", "")
	if _, err := empty.Min(); err != ErrEmpty {
		t.Error("empty min should error")
	}
	if _, err := empty.Mean(); err != ErrEmpty {
		t.Error("empty mean should error")
	}
}

func TestTimeMeanZeroOrderHold(t *testing.T) {
	// Value 0 for 1 s, then 10 for 9 s: time mean = 9.
	s := mkSeries([2]float64{0, 0}, [2]float64{1, 10}, [2]float64{10, 10})
	m, err := s.TimeMean()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m-9) > 1e-12 {
		t.Errorf("time mean %g, want 9", m)
	}
	// Unweighted mean differs.
	um, _ := s.Mean()
	if math.Abs(um-20.0/3) > 1e-12 {
		t.Errorf("mean %g", um)
	}
}

func TestIntegralTrapezoid(t *testing.T) {
	// y = t on [0, 2]: integral = 2.
	s := mkSeries([2]float64{0, 0}, [2]float64{1, 1}, [2]float64{2, 2})
	i, err := s.Integral()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(i-2) > 1e-12 {
		t.Errorf("integral %g, want 2", i)
	}
}

func TestInterp(t *testing.T) {
	s := mkSeries([2]float64{0, 0}, [2]float64{10, 100})
	cases := map[float64]float64{-5: 0, 0: 0, 5: 50, 10: 100, 15: 100}
	for tt, want := range cases {
		got, err := s.Interp(tt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("Interp(%g) = %g, want %g", tt, got, want)
		}
	}
}

func TestFractionWithinBand(t *testing.T) {
	// 5 V for 8 s, 4 V for 2 s.
	s := mkSeries([2]float64{0, 5}, [2]float64{8, 4}, [2]float64{10, 4})
	f, err := s.FractionWithinBand(4.9, 5.1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f-0.8) > 1e-12 {
		t.Errorf("fraction %g, want 0.8", f)
	}
	fp, err := s.FractionWithinPercent(5, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fp-0.8) > 1e-12 {
		t.Errorf("percent fraction %g, want 0.8", fp)
	}
}

func TestTimeBelowAndFirstCrossing(t *testing.T) {
	s := mkSeries([2]float64{0, 5}, [2]float64{2, 3.9}, [2]float64{4, 5}, [2]float64{6, 5})
	below, err := s.TimeBelow(4.0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(below-2) > 1e-12 {
		t.Errorf("time below %g, want 2", below)
	}
	tc, ok := s.FirstCrossingBelow(4.0)
	if !ok || tc != 2 {
		t.Errorf("first crossing at %g, ok=%v", tc, ok)
	}
	if _, ok := s.FirstCrossingBelow(1.0); ok {
		t.Error("phantom crossing")
	}
}

func TestResample(t *testing.T) {
	s := mkSeries([2]float64{0, 0}, [2]float64{10, 10})
	r, err := s.Resample(2.5)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 5 {
		t.Fatalf("resampled to %d points", r.Len())
	}
	for i := 0; i < r.Len(); i++ {
		tt, v := r.At(i)
		if math.Abs(v-tt) > 1e-9 {
			t.Errorf("resample point (%g, %g) off the line", tt, v)
		}
	}
	if _, err := s.Resample(0); err == nil {
		t.Error("zero period accepted")
	}
}

// TestResampleNoAccumulatedDrift is the regression test for the float
// accumulation bug: computing sample times by repeated `t += period`
// drifts by many ULPs over a long span, so resampling a multi-hour trace
// at a period with no exact binary representation produced sample times
// visibly off the grid (and could drop the final sample). Times must be
// exactly t0 + i·period.
func TestResampleNoAccumulatedDrift(t *testing.T) {
	s := NewSeries("v", "V")
	// Six simulated hours, sampled every 7 s.
	const span = 6 * 3600.0
	for tt := 0.0; tt <= span; tt += 7 {
		s.Append(tt, tt)
	}
	const period = 0.1 // no exact binary representation
	r, err := s.Resample(period)
	if err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Last()
	wantN := int(math.Floor((t1+period/2)/period)) + 1
	if r.Len() != wantN {
		t.Fatalf("resampled to %d points, want %d", r.Len(), wantN)
	}
	for i := 0; i < r.Len(); i += 1000 {
		tt, _ := r.At(i)
		if want := float64(i) * period; tt != want {
			t.Fatalf("sample %d at t=%.17g, want exactly %.17g (drift %g)", i, tt, want, tt-want)
		}
	}
	if last, _ := r.Last(); math.Abs(last-t1) > period {
		t.Errorf("final sample at t=%g, want ≈%g", last, t1)
	}
}

func TestAppendDedupe(t *testing.T) {
	s := NewSeries("v", "V")
	if !s.AppendDedupe(0, 1) {
		t.Error("first sample rejected")
	}
	if s.AppendDedupe(0, 1) {
		t.Error("exact duplicate accepted")
	}
	if !s.AppendDedupe(0, 2) {
		t.Error("same-time step change rejected")
	}
	if !s.AppendDedupe(1, 2) {
		t.Error("new-time sample rejected")
	}
	if s.Len() != 3 {
		t.Errorf("series holds %d samples, want 3", s.Len())
	}
	// Mean must reflect the deduped samples only.
	m, err := s.Mean()
	if err != nil || m != (1+2+2)/3.0 {
		t.Errorf("Mean = %g, %v", m, err)
	}
}

func TestDecimateKeepsEnds(t *testing.T) {
	s := NewSeries("x", "")
	for i := 0; i < 10; i++ {
		s.Append(float64(i), float64(i))
	}
	d := s.Decimate(4)
	ft, _ := d.First()
	lt, _ := d.Last()
	if ft != 0 || lt != 9 {
		t.Errorf("decimated span [%g, %g], want [0, 9]", ft, lt)
	}
	if d.Len() >= s.Len() {
		t.Error("decimation did not reduce")
	}
	if s.Decimate(0).Len() != s.Len() {
		t.Error("k<1 should keep everything")
	}
}

func TestSortAndClone(t *testing.T) {
	s := mkSeries([2]float64{3, 30}, [2]float64{1, 10}, [2]float64{2, 20})
	c := s.Clone()
	s.Sort()
	for i := 1; i < s.Len(); i++ {
		t0, _ := s.At(i - 1)
		t1, _ := s.At(i)
		if t1 < t0 {
			t.Fatal("not sorted")
		}
	}
	// Clone must be unaffected by the sort.
	if tt, _ := c.At(0); tt != 3 {
		t.Error("clone aliases original")
	}
}

func TestDuration(t *testing.T) {
	if mkSeries([2]float64{2, 0}, [2]float64{7, 0}).Duration() != 5 {
		t.Error("duration wrong")
	}
	if mkSeries([2]float64{2, 0}).Duration() != 0 {
		t.Error("single-sample duration should be 0")
	}
}

// TestQuickBandFractionBounded: the band fraction is always in [0,1].
func TestQuickBandFractionBounded(t *testing.T) {
	f := func(vals []float64, lo, hi float64) bool {
		if len(vals) == 0 {
			return true
		}
		s := NewSeries("q", "")
		for i, v := range vals {
			s.Append(float64(i), v)
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		fr, err := s.FractionWithinBand(lo, hi)
		return err == nil && fr >= 0 && fr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestASCIIPlot(t *testing.T) {
	s := mkSeries([2]float64{0, 0}, [2]float64{1, 1}, [2]float64{2, 4}, [2]float64{3, 2})
	plot := ASCIIPlot(s, 20, 5)
	if !strings.Contains(plot, "*") {
		t.Error("plot contains no points")
	}
	if ASCIIPlot(NewSeries("e", ""), 20, 5) != "(empty)\n" {
		t.Error("empty plot rendering wrong")
	}
}

func TestWriteCSV(t *testing.T) {
	a := mkSeries([2]float64{0, 1}, [2]float64{2, 3})
	b := NewSeries("other", "W")
	b.Append(1, 10)
	var sb strings.Builder
	if err := WriteCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + union of 3 distinct times
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if lines[0] != "t,test[V],other[W]" {
		t.Errorf("header %q", lines[0])
	}
	if err := WriteCSV(&sb); err == nil {
		t.Error("no-series CSV accepted")
	}
}
