package pv

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Profile yields irradiance in W/m² as a function of time in seconds.
// Implementations must be safe for concurrent readers and deterministic
// (any randomness fixed at construction from an explicit seed), so that
// experiments are reproducible.
type Profile interface {
	Irradiance(t float64) float64
}

// Constant is a fixed irradiance level.
type Constant float64

// Irradiance implements Profile.
func (c Constant) Irradiance(float64) float64 { return float64(c) }

// Sinusoid is the transient test input of the paper's Fig. 3: irradiance
// oscillating about a mean. Values are clamped at zero.
type Sinusoid struct {
	Mean      float64 // W/m²
	Amplitude float64 // W/m²
	Period    float64 // seconds
	Phase     float64 // radians
}

// Irradiance implements Profile.
func (s Sinusoid) Irradiance(t float64) float64 {
	if s.Period <= 0 {
		return math.Max(0, s.Mean)
	}
	g := s.Mean + s.Amplitude*math.Sin(2*math.Pi*t/s.Period+s.Phase)
	return math.Max(0, g)
}

// Step is one segment of a piecewise-constant profile.
type Step struct {
	From float64 // start time, seconds
	G    float64 // irradiance from From onwards, W/m²
}

// Steps is a piecewise-constant profile; before the first step the first
// level applies. Construct with NewSteps to guarantee ordering.
type Steps struct {
	steps []Step
}

// NewSteps builds a piecewise-constant profile, sorting segments by start
// time. It returns an error when no segments are given.
func NewSteps(steps ...Step) (*Steps, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("pv: NewSteps needs at least one step")
	}
	ss := append([]Step(nil), steps...)
	sort.SliceStable(ss, func(i, j int) bool { return ss[i].From < ss[j].From })
	return &Steps{steps: ss}, nil
}

// Irradiance implements Profile.
func (p *Steps) Irradiance(t float64) float64 {
	g := p.steps[0].G
	for _, s := range p.steps {
		if t >= s.From {
			g = s.G
		} else {
			break
		}
	}
	return math.Max(0, g)
}

// Shadow models the paper's Fig. 6 scenario: full sun interrupted by a
// sudden shadowing event with smooth (smoothstep) edges.
type Shadow struct {
	Base     float64 // unshadowed irradiance, W/m²
	Depth    float64 // fraction of Base removed at full shadow, 0..1
	Start    float64 // shadow onset time, seconds
	Duration float64 // full-shadow duration, seconds
	Edge     float64 // transition duration of each edge, seconds
}

// Irradiance implements Profile.
func (s Shadow) Irradiance(t float64) float64 {
	depth := math.Min(math.Max(s.Depth, 0), 1)
	att := 0.0
	switch {
	case t < s.Start || t > s.Start+s.Duration+2*s.Edge:
		att = 0
	case t < s.Start+s.Edge:
		att = smoothstep((t - s.Start) / s.Edge)
	case t < s.Start+s.Edge+s.Duration:
		att = 1
	default:
		att = 1 - smoothstep((t-s.Start-s.Edge-s.Duration)/s.Edge)
	}
	return math.Max(0, s.Base*(1-depth*att))
}

func smoothstep(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	return x * x * (3 - 2*x)
}

// Day is the diurnal macro envelope of the paper's Fig. 1: zero before
// sunrise and after sunset, a raised sine-power bell in between.
type Day struct {
	Sunrise float64 // seconds from trace start
	Sunset  float64 // seconds from trace start
	Peak    float64 // peak irradiance at solar noon, W/m²
	// Shape sharpens (>1) or flattens (<1) the bell; 0 means 1.5, a good
	// fit for clear-sky global irradiance.
	Shape float64
}

// StandardDay returns a 24 h envelope with a 6:00 sunrise, 20:00 sunset and
// 1000 W/m² peak, matching the span of the paper's Fig. 1 trace.
func StandardDay() Day {
	return Day{Sunrise: 6 * 3600, Sunset: 20 * 3600, Peak: StandardIrradiance}
}

// Irradiance implements Profile.
func (d Day) Irradiance(t float64) float64 {
	if t <= d.Sunrise || t >= d.Sunset || d.Sunset <= d.Sunrise {
		return 0
	}
	shape := d.Shape
	if shape == 0 {
		shape = 1.5
	}
	x := math.Pi * (t - d.Sunrise) / (d.Sunset - d.Sunrise)
	return d.Peak * math.Pow(math.Sin(x), shape)
}

// cloudEvent is one occlusion interval with smoothstep edges.
type cloudEvent struct {
	start, duration, edge float64
	transmission          float64 // fraction of light passing at full occlusion
}

// Clouds overlays stochastic cloud shadowing ("micro variability") on a
// base profile. All randomness is drawn at construction from the seed, so
// a Clouds value is immutable and deterministic afterwards.
type Clouds struct {
	base   Profile
	events []cloudEvent
}

// CloudParams configures the stochastic cloud process.
type CloudParams struct {
	// Span is the time horizon over which cloud events are generated.
	Span float64
	// MeanGap is the mean clear-sky interval between cloud arrivals (s).
	MeanGap float64
	// MeanDuration is the mean full-occlusion duration per cloud (s).
	MeanDuration float64
	// MinTransmission..MaxTransmission bound per-cloud light transmission.
	MinTransmission, MaxTransmission float64
	// EdgeSeconds is the mean shadow edge (ramp) duration.
	EdgeSeconds float64
}

// Weather presets named after the paper's test conditions (Section V-B).
func FullSun() CloudParams {
	return CloudParams{MeanGap: math.Inf(1)}
}

// PartialSun has sparse, shallow clouds.
func PartialSun(span float64) CloudParams {
	return CloudParams{Span: span, MeanGap: 600, MeanDuration: 90,
		MinTransmission: 0.45, MaxTransmission: 0.8, EdgeSeconds: 8}
}

// Overcast has frequent deep occlusions.
func Overcast(span float64) CloudParams {
	return CloudParams{Span: span, MeanGap: 120, MeanDuration: 240,
		MinTransmission: 0.15, MaxTransmission: 0.45, EdgeSeconds: 12}
}

// Hailstorm has dense, fast, deep occlusions — the paper's harshest test.
func Hailstorm(span float64) CloudParams {
	return CloudParams{Span: span, MeanGap: 45, MeanDuration: 60,
		MinTransmission: 0.05, MaxTransmission: 0.3, EdgeSeconds: 3}
}

// cloudRands recycles NewClouds' generators. Each wraps a go1Source,
// math/rand's Go 1 source with a lazily filled table: Seed only
// normalises the seed, and a draw computes a table word the first time
// it reads it, so a cloud-free realisation that draws one number pays
// for two words instead of math/rand's 1 841-step table fill. Every
// draw is the one rand.New(rand.NewSource(seed)) makes, so realisations
// keep their bits. The source still holds a 4.9 KB ring, and a study
// realises all of its tasks' profiles in one burst before it simulates
// any, so fresh sources would churn the heap (about 30 MB per 6 144-task
// study); hence the pool.
var cloudRands = sync.Pool{New: func() any { return rand.New(new(go1Source)) }}

// NewClouds overlays a cloud process on base using the given params and
// seed. A MeanGap of +Inf produces a cloud-free overlay.
func NewClouds(base Profile, p CloudParams, seed int64) *Clouds {
	c := &Clouds{base: base}
	if math.IsInf(p.MeanGap, 1) || p.MeanGap <= 0 || p.Span <= 0 {
		return c
	}
	rng := cloudRands.Get().(*rand.Rand)
	defer cloudRands.Put(rng)
	rng.Seed(seed)
	t := rng.ExpFloat64() * p.MeanGap
	for t < p.Span {
		dur := rng.ExpFloat64() * p.MeanDuration
		edge := p.EdgeSeconds * (0.5 + rng.Float64())
		tr := p.MinTransmission + rng.Float64()*(p.MaxTransmission-p.MinTransmission)
		c.events = append(c.events, cloudEvent{start: t, duration: dur, edge: edge, transmission: tr})
		t += dur + 2*edge + rng.ExpFloat64()*p.MeanGap
	}
	return c
}

// Irradiance implements Profile. Overlapping events multiply, which
// naturally darkens stacked clouds.
func (c *Clouds) Irradiance(t float64) float64 {
	g := c.base.Irradiance(t)
	if g <= 0 {
		return 0
	}
	for _, ev := range c.events {
		if t < ev.start || t > ev.start+ev.duration+2*ev.edge {
			continue
		}
		var att float64
		switch {
		case t < ev.start+ev.edge:
			att = smoothstep((t - ev.start) / ev.edge)
		case t < ev.start+ev.edge+ev.duration:
			att = 1
		default:
			att = 1 - smoothstep((t-ev.start-ev.edge-ev.duration)/ev.edge)
		}
		g *= 1 - (1-ev.transmission)*att
	}
	return g
}

// Offset shifts a profile in time: Irradiance(t) = Base.Irradiance(t+T0).
// Use it to start a simulation mid-day (the paper's Fig. 12 run starts at
// 10:30).
type Offset struct {
	Base Profile
	T0   float64
}

// Irradiance implements Profile.
func (o Offset) Irradiance(t float64) float64 { return o.Base.Irradiance(t + o.T0) }

// Scaled multiplies a profile by a constant factor (e.g. panel soiling).
type Scaled struct {
	Base   Profile
	Factor float64
}

// Irradiance implements Profile.
func (s Scaled) Irradiance(t float64) float64 {
	return math.Max(0, s.Factor*s.Base.Irradiance(t))
}
