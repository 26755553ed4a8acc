package ode

import (
	"math"
	"math/rand"
	"testing"
)

// TestPowNegThirdMatchesPow requires powNegThird to return math.Pow(x,
// −1/3)'s bits on random error norms (uniform on a wide range and on
// raw bit patterns, which cover subnormals and negatives), on the special
// values, and on the float64 extremes. The one documented difference is
// −Inf, which an RMS error norm cannot produce.
func TestPowNegThirdMatchesPow(t *testing.T) {
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	check := func(x float64) {
		t.Helper()
		if got, want := powNegThird(x), math.Pow(x, -1.0/3.0); !same(got, want) {
			t.Fatalf("powNegThird(%b) = %b, math.Pow = %b", x, got, want)
		}
	}
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, math.Inf(1), math.NaN(),
		math.MaxFloat64, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, 0x1p-1022, math.Nextafter(1, 0), math.Nextafter(1, 2),
	} {
		check(x)
	}
	rng := rand.New(rand.NewSource(1))
	for k := 0; k < 1<<20; k++ {
		check(rng.Float64() * 1e3)                // typical error norms
		check(math.Float64frombits(rng.Uint64())) // any bit pattern
	}
	if got := powNegThird(math.Inf(-1)); !math.IsNaN(got) || math.Pow(math.Inf(-1), -1.0/3.0) != 0 {
		t.Errorf("−Inf: powNegThird = %g, math.Pow = %g; the documented difference moved",
			got, math.Pow(math.Inf(-1), -1.0/3.0))
	}
}
