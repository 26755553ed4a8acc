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
	if len(cl.events) == 0 {
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
	if len(cl.events) != 0 {
		t.Errorf("full sun generated %d clouds", len(cl.events))
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

// refClouds realises p with NewClouds' draw sequence from a fresh
// rand.New(rand.NewSource(seed)), and reports how many numbers it drew
// from the source.
func refClouds(p CloudParams, seed int64) (events []cloudEvent, draws int) {
	src := &countingSource{Source64: rand.NewSource(seed).(rand.Source64)}
	rng := rand.New(src)
	t := rng.ExpFloat64() * p.MeanGap
	for t < p.Span {
		dur := rng.ExpFloat64() * p.MeanDuration
		edge := p.EdgeSeconds * (0.5 + rng.Float64())
		tr := p.MinTransmission + rng.Float64()*(p.MaxTransmission-p.MinTransmission)
		events = append(events, cloudEvent{start: t, duration: dur, edge: edge, transmission: tr})
		t += dur + 2*edge + rng.ExpFloat64()*p.MeanGap
	}
	return events, src.n
}

// stress2s is StressClouds' process over a 2 s span: usually cloud-free,
// one draw.
var stress2s = CloudParams{Span: 2, MeanGap: 30, MeanDuration: 12, MinTransmission: 0.25, MaxTransmission: 0.6, EdgeSeconds: 2}

// countingSource counts the numbers drawn from a source.
type countingSource struct {
	rand.Source64
	n int
}

func (s *countingSource) Int63() int64 { s.n++; return s.Source64.Int63() }

func (s *countingSource) Uint64() uint64 { s.n++; return s.Source64.Uint64() }

// TestCloudsRecycledGeneratorKeepsDraws checks every event of NewClouds'
// realisations against a reference drawn from a fresh math/rand
// generator. Before each realisation the pool is handed a generator
// left mid-stream by another seed, at points before, inside and past
// the first wrap of its 607-word ring. The day-long Hailstorm and
// Overcast realisations read more than 607 numbers.
func TestCloudsRecycledGeneratorKeepsDraws(t *testing.T) {
	cases := []struct {
		name string
		p    CloudParams
		long bool
	}{
		{"dense-1000s", CloudParams{Span: 1e3, MeanGap: 1, MeanDuration: 1, MaxTransmission: 1, EdgeSeconds: 1}, true},
		{"stress-2s", stress2s, false},
		{"hailstorm-24h", Hailstorm(86400), true},
		{"overcast-24h", Overcast(86400), true},
	}
	seeds := append([]int64{3, 4, 5, 6, 7, 8, 9, 10}, go1EdgeSeeds...)
	for _, tc := range cases {
		for k, seed := range seeds {
			left := rand.New(new(go1Source))
			left.Seed(^seed)
			for i := 0; i < []int{0, 5, 300, 700}[k%4]; i++ {
				left.Float64()
			}
			cloudRands.Put(left)
			got := NewClouds(Constant(1000), tc.p, seed).events
			want, draws := refClouds(tc.p, seed)
			if tc.long && draws <= rngLen {
				t.Fatalf("%s seed %d: the reference drew %d numbers, want more than %d", tc.name, seed, draws, rngLen)
			}
			if len(got) != len(want) {
				t.Fatalf("%s seed %d: %d events, fresh generator draws %d", tc.name, seed, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s seed %d: event %d is %+v, fresh generator draws %+v", tc.name, seed, i, got[i], want[i])
				}
			}
		}
	}
}

var cloudsSink *Clouds

// BenchmarkNewClouds is one cloud realisation per op, on a new seed each
// op as in a study: a 2 s stress-clouds span (usually cloud-free, one
// draw) and a 24 h hailstorm day (thousands of draws, so every word of
// the generator's ring is filled and the ring wraps).
func BenchmarkNewClouds(b *testing.B) {
	for _, bc := range []struct {
		name string
		p    CloudParams
	}{
		{"stress-2s", stress2s},
		{"hailstorm-24h", Hailstorm(86400)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cloudsSink = NewClouds(Constant(1000), bc.p, int64(i))
			}
		})
	}
}
