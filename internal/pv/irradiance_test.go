package pv

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConstant(t *testing.T) {
	if Constant(500).Irradiance(123) != 500 {
		t.Error("constant profile not constant")
	}
}

func TestSinusoidClampsAtZero(t *testing.T) {
	s := Sinusoid{Mean: 100, Amplitude: 500, Period: 10}
	for tt := 0.0; tt < 20; tt += 0.1 {
		if g := s.Irradiance(tt); g < 0 {
			t.Fatalf("negative irradiance %g at t=%g", g, tt)
		}
	}
	// Mean+amplitude reached at quarter period.
	if g := s.Irradiance(2.5); math.Abs(g-600) > 1e-9 {
		t.Errorf("peak %g, want 600", g)
	}
}

func TestSinusoidDegenerate(t *testing.T) {
	s := Sinusoid{Mean: 300, Amplitude: 100, Period: 0}
	if g := s.Irradiance(5); g != 300 {
		t.Errorf("zero-period sinusoid = %g, want mean", g)
	}
}

func TestStepsProfile(t *testing.T) {
	p, err := NewSteps(
		Step{From: 10, G: 500},
		Step{From: 0, G: 100}, // out of order on purpose
		Step{From: 20, G: 900},
	)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[float64]float64{-1: 100, 0: 100, 5: 100, 10: 500, 15: 500, 20: 900, 99: 900}
	for tt, want := range cases {
		if got := p.Irradiance(tt); got != want {
			t.Errorf("Irradiance(%g) = %g, want %g", tt, got, want)
		}
	}
	if _, err := NewSteps(); err == nil {
		t.Error("empty Steps should error")
	}
}

func TestShadowProfile(t *testing.T) {
	s := Shadow{Base: 1000, Depth: 0.6, Start: 10, Duration: 5, Edge: 1}
	if g := s.Irradiance(5); g != 1000 {
		t.Errorf("before shadow: %g", g)
	}
	if g := s.Irradiance(13); math.Abs(g-400) > 1e-9 {
		t.Errorf("full shadow: %g, want 400", g)
	}
	if g := s.Irradiance(30); g != 1000 {
		t.Errorf("after shadow: %g", g)
	}
	// Edges are monotone.
	prev := s.Irradiance(10.0)
	for tt := 10.0; tt <= 11.0; tt += 0.05 {
		g := s.Irradiance(tt)
		if g > prev+1e-9 {
			t.Errorf("leading edge not monotone at t=%g", tt)
		}
		prev = g
	}
}

func TestShadowDepthClamped(t *testing.T) {
	s := Shadow{Base: 1000, Depth: 1.7, Start: 0, Duration: 10, Edge: 0.1}
	if g := s.Irradiance(5); g < 0 {
		t.Errorf("over-deep shadow gives negative irradiance %g", g)
	}
}

func TestDayEnvelope(t *testing.T) {
	d := StandardDay()
	if g := d.Irradiance(0); g != 0 {
		t.Errorf("midnight irradiance %g", g)
	}
	if g := d.Irradiance(5 * 3600); g != 0 {
		t.Errorf("pre-sunrise irradiance %g", g)
	}
	noon := d.Irradiance(13 * 3600)
	if noon < 900 || noon > 1000 {
		t.Errorf("noon irradiance %g, want near peak", noon)
	}
	if g := d.Irradiance(21 * 3600); g != 0 {
		t.Errorf("post-sunset irradiance %g", g)
	}
	// Symmetric about solar noon.
	g1 := d.Irradiance(10 * 3600)
	g2 := d.Irradiance(16 * 3600)
	if math.Abs(g1-g2) > 1e-6 {
		t.Errorf("asymmetric envelope: %g vs %g", g1, g2)
	}
}

func TestCloudsDeterministic(t *testing.T) {
	span := 3600.0
	a := NewClouds(Constant(1000), PartialSun(span), 42)
	b := NewClouds(Constant(1000), PartialSun(span), 42)
	c := NewClouds(Constant(1000), PartialSun(span), 43)
	same, diff := true, false
	for tt := 0.0; tt < span; tt += 10 {
		if a.Irradiance(tt) != b.Irradiance(tt) {
			same = false
		}
		if a.Irradiance(tt) != c.Irradiance(tt) {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different traces")
	}
	if !diff {
		t.Error("different seeds produced identical traces")
	}
}

func TestCloudsBounded(t *testing.T) {
	span := 3600.0
	cl := NewClouds(Constant(1000), Overcast(span), 7)
	if cl.NumEvents() == 0 {
		t.Fatal("overcast generated no clouds")
	}
	for tt := 0.0; tt < span; tt += 5 {
		g := cl.Irradiance(tt)
		if g < 0 || g > 1000 {
			t.Fatalf("irradiance %g out of [0, base] at t=%g", g, tt)
		}
	}
}

func TestFullSunHasNoClouds(t *testing.T) {
	cl := NewClouds(Constant(1000), FullSun(), 1)
	if cl.NumEvents() != 0 {
		t.Errorf("full sun generated %d clouds", cl.NumEvents())
	}
	if cl.Irradiance(100) != 1000 {
		t.Error("full sun attenuates")
	}
}

func TestOffsetProfile(t *testing.T) {
	d := StandardDay()
	o := Offset{Base: d, T0: 10.5 * 3600}
	if got, want := o.Irradiance(0), d.Irradiance(10.5*3600); got != want {
		t.Errorf("offset start %g, want %g", got, want)
	}
}

func TestScaledProfile(t *testing.T) {
	s := Scaled{Base: Constant(400), Factor: 0.5}
	if s.Irradiance(0) != 200 {
		t.Error("scaling wrong")
	}
	neg := Scaled{Base: Constant(400), Factor: -1}
	if neg.Irradiance(0) != 0 {
		t.Error("negative scaling should clamp to zero")
	}
}

// TestQuickProfilesNonNegative property-tests that every profile type
// yields non-negative irradiance at arbitrary times.
func TestQuickProfilesNonNegative(t *testing.T) {
	day := StandardDay()
	clouds := NewClouds(day, Hailstorm(24*3600), 99)
	shadow := Shadow{Base: 800, Depth: 0.9, Start: 100, Duration: 50, Edge: 5}
	sin := Sinusoid{Mean: 200, Amplitude: 900, Period: 30}
	profiles := []Profile{day, clouds, shadow, sin}
	f := func(tRaw float64) bool {
		tt := math.Mod(math.Abs(tRaw), 24*3600)
		for _, p := range profiles {
			if p.Irradiance(tt) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestCloudsRecycledGeneratorKeepsDraws checks NewClouds' recycled
// generators against fresh ones: after another seed has used the pool,
// a realisation's first cloud event still holds exactly the draws of
// rand.New(rand.NewSource(seed)).
func TestCloudsRecycledGeneratorKeepsDraws(t *testing.T) {
	p := CloudParams{Span: 1e3, MeanGap: 1, MeanDuration: 1, MaxTransmission: 1, EdgeSeconds: 1}
	for seed := int64(1); seed <= 20; seed++ {
		NewClouds(Constant(1000), p, -seed) // leaves a used generator in the pool
		ev := NewClouds(Constant(1000), p, seed).events[0]
		ref := rand.New(rand.NewSource(seed))
		want := cloudEvent{start: ref.ExpFloat64(), duration: ref.ExpFloat64(), edge: 0.5 + ref.Float64()}
		want.transmission = ref.Float64()
		if ev != want {
			t.Fatalf("seed %d: first event %+v, fresh generator draws %+v", seed, ev, want)
		}
	}
}
