package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSummarizeKnown(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Min != 2 || s.Max != 9 {
		t.Errorf("summary %+v", s)
	}
	if math.Abs(s.Mean-5) > 1e-12 {
		t.Errorf("mean %g", s.Mean)
	}
	if math.Abs(s.StdDev-2) > 1e-12 { // classic example: σ = 2
		t.Errorf("stddev %g, want 2", s.StdDev)
	}
	if math.Abs(s.Median-4.5) > 1e-12 {
		t.Errorf("median %g", s.Median)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Error("empty summarize should error")
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5, -1: 1, 2: 5}
	for q, want := range cases {
		if got := Quantile(sorted, q); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%g) = %g, want %g", q, got, want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.5); got != 5 {
		t.Errorf("interpolated median %g", got)
	}
}

func TestQuickQuantileMonotone(t *testing.T) {
	f := func(xs []float64, q1, q2 float64) bool {
		if len(xs) == 0 {
			return true
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, v := range sorted {
			if math.IsNaN(v) {
				return true
			}
		}
		a := math.Mod(math.Abs(q1), 1)
		b := math.Mod(math.Abs(q2), 1)
		if a > b {
			a, b = b, a
		}
		return Quantile(sorted, a) <= Quantile(sorted, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	h.Add(1)            // bin 0
	h.Add(9.999)        // bin 4
	h.Add(-3)           // underflow
	h.Add(10)           // overflow (half-open)
	h.AddWeighted(5, 3) // bin 2 with weight 3
	if h.Total() != 7 {
		t.Errorf("total %g", h.Total())
	}
	if h.Underflow() != 1 || h.Overflow() != 1 {
		t.Errorf("under %g over %g", h.Underflow(), h.Overflow())
	}
	if h.Bins[2] != 3 {
		t.Errorf("bin 2 weight %g", h.Bins[2])
	}
	if h.ModeBin() != 2 {
		t.Errorf("mode bin %d", h.ModeBin())
	}
	if c := h.BinCenter(2); c != 5 {
		t.Errorf("bin 2 center %g", c)
	}
	if f := h.Fraction(2); math.Abs(f-3.0/7) > 1e-12 {
		t.Errorf("fraction %g", f)
	}
}

func TestHistogramValidation(t *testing.T) {
	if _, err := NewHistogram(0, 10, 0); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := NewHistogram(5, 5, 3); err == nil {
		t.Error("empty range accepted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	for name, xs := range quantileInputs(5000) {
		lo, hi := exactQuantile(xs, 0), exactQuantile(xs, 1)
		if hi == lo {
			hi = lo + 1 // constant stream: any spanning bounds work
		}
		h, err := NewHistogram(lo, hi+1e-9, 200)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range xs {
			h.Add(x)
		}
		width := (h.Hi - h.Lo) / float64(len(h.Bins))
		for _, q := range []float64{0.05, 0.5, 0.95} {
			got, err := h.Quantile(q)
			if err != nil {
				t.Fatal(err)
			}
			want := exactQuantile(xs, q)
			// The histogram resolves quantiles to within ~a bin width.
			if math.Abs(got-want) > 2*width {
				t.Errorf("%s q=%g: histogram %.4f vs exact %.4f (bin %.4f)", name, q, got, want, width)
			}
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h, _ := NewHistogram(0, 10, 10)
	if _, err := h.Quantile(0.5); err == nil {
		t.Error("empty histogram quantile should error")
	}
	h.Add(-5) // underflow
	h.Add(15) // overflow
	q0, _ := h.Quantile(0.25)
	q1, _ := h.Quantile(0.95)
	if q0 != h.Lo || q1 != h.Hi {
		t.Errorf("under/overflow mass should clamp to bounds, got %g and %g", q0, q1)
	}
	// With no underflow, q=0 must report where the data actually is —
	// the lower edge of the first occupied bin — not fabricate Lo.
	h2, _ := NewHistogram(0, 10, 10)
	h2.Add(5.3)
	if q, _ := h2.Quantile(0); q != 5 {
		t.Errorf("q=0 of mass in [5,6) bin should be 5, got %g", q)
	}
}

func TestSummaryQuartiles(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.P25 != 2 || s.P75 != 4 {
		t.Errorf("quartiles of 1..5: P25=%g P75=%g, want 2 and 4", s.P25, s.P75)
	}
	if s.P25 > s.Median || s.Median > s.P75 {
		t.Error("quantile ordering broken")
	}
}

// quantileInputs are the cross-validation corpora: random, sorted,
// reverse-sorted, constant, bimodal and uniform streams.
func quantileInputs(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(7))
	random := make([]float64, n)
	for i := range random {
		random[i] = rng.NormFloat64()*3 + 10
	}
	sorted := append([]float64(nil), random...)
	sort.Float64s(sorted)
	reversed := make([]float64, n)
	for i := range reversed {
		reversed[i] = sorted[n-1-i]
	}
	constant := make([]float64, n)
	for i := range constant {
		constant[i] = 4.7
	}
	bimodal := make([]float64, n)
	for i := range bimodal {
		if rng.Intn(2) == 0 {
			bimodal[i] = rng.NormFloat64()*0.5 - 20
		} else {
			bimodal[i] = rng.NormFloat64()*0.5 + 20
		}
	}
	uniform := make([]float64, n)
	for i := range uniform {
		uniform[i] = rng.Float64() * 100
	}
	return map[string][]float64{
		"random": random, "sorted": sorted, "reversed": reversed,
		"constant": constant, "bimodal": bimodal, "uniform": uniform,
	}
}

func exactQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Quantile(s, q)
}
