package pv

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
)

// identityMakers build one profile of every type this package defines,
// clouds with and without events, and nested trees. Each maker is
// called twice in the tests, so equal identities come from equal
// construction, never from a shared value.
var identityMakers = []struct {
	name string
	make func() Profile
}{
	{"constant", func() Profile { return Constant(1000) }},
	{"constant-620", func() Profile { return Constant(620) }},
	{"sinusoid", func() Profile { return Sinusoid{Mean: 500, Amplitude: 200, Period: 10, Phase: 0.3} }},
	{"steps", func() Profile {
		s, _ := NewSteps(Step{From: 10, G: 500}, Step{From: 0, G: 100}, Step{From: 20, G: 900})
		return s
	}},
	{"shadow", func() Profile { return DeepShadow(4) }},
	{"day", func() Profile { return StandardDay() }},
	{"stress-clouds", func() Profile { return StressClouds(5, 240) }},
	{"stress-clouds-cloud-free", func() Profile { return StressClouds(cloudFreeSeeds[0], 2) }},
	{"table2-clouds", func() Profile {
		return NewClouds(Constant(620), CloudParams{Span: 400, MeanGap: 60, MeanDuration: 30,
			MinTransmission: 0.72, MaxTransmission: 0.92, EdgeSeconds: 8}, 9)
	}},
	{"offset-day-clouds", func() Profile {
		return Offset{Base: NewClouds(StandardDay(), PartialSun(24*3600), 1), T0: 10.5 * 3600}
	}},
	{"scaled-clouds", func() Profile { return Scaled{Base: StressClouds(3, 240), Factor: 0.8} }},
}

// cloudFreeSeeds are two seeds whose 2 s stress-clouds realisations
// hold no cloud: different seeds, one realisation.
var cloudFreeSeeds = func() []int64 {
	var seeds []int64
	for s := int64(1); len(seeds) < 2; s++ {
		if len(StressClouds(s, 2).events) == 0 {
			seeds = append(seeds, s)
		}
	}
	return seeds
}()

func identity(t *testing.T, p Profile) []byte {
	t.Helper()
	id, ok := AppendIdentity(nil, p)
	if !ok {
		t.Fatalf("%#v has no identity", p)
	}
	return id
}

// edges lists the times where p's irradiance changes regime: cloud
// and shadow edges, step starts, sunrise and sunset, in p's own time.
func edges(p Profile) []float64 {
	switch p := p.(type) {
	case *Clouds:
		out := edges(p.base)
		for _, ev := range p.events {
			out = append(out, ev.start, ev.start+ev.edge, ev.start+ev.edge+ev.duration,
				ev.start+ev.duration+2*ev.edge)
		}
		return out
	case *Steps:
		var out []float64
		for _, s := range p.steps {
			out = append(out, s.From)
		}
		return out
	case Shadow:
		return []float64{p.Start, p.Start + p.Edge, p.Start + p.Edge + p.Duration, p.Start + p.Duration + 2*p.Edge}
	case Day:
		return []float64{p.Sunrise, p.Sunset}
	case Offset:
		var out []float64
		for _, e := range edges(p.Base) {
			out = append(out, e-p.T0)
		}
		return out
	case Scaled:
		return edges(p.Base)
	}
	return nil
}

// probeTimes is a dense grid over [-1, horizon] plus every edge of p
// and its neighbouring floats on both sides.
func probeTimes(p Profile, horizon float64) []float64 {
	var ts []float64
	for i := 0; i <= 4000; i++ {
		ts = append(ts, -1+(horizon+1)*float64(i)/4000)
	}
	for _, e := range edges(p) {
		ts = append(ts, math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1)))
	}
	return ts
}

// requireSameIrradiance fails unless a and b agree, bit for bit, at
// every probe time.
func requireSameIrradiance(t *testing.T, label string, a, b Profile, ts []float64) {
	t.Helper()
	for _, tt := range ts {
		if ga, gb := a.Irradiance(tt), b.Irradiance(tt); math.Float64bits(ga) != math.Float64bits(gb) {
			t.Fatalf("%s: equal identities, irradiance %v vs %v at t=%v", label, ga, gb, tt)
		}
	}
}

func TestEqualIdentityEqualIrradiance(t *testing.T) {
	ids := make([][]byte, len(identityMakers))
	for i, m := range identityMakers {
		a, b := m.make(), m.make()
		ids[i] = identity(t, a)
		if !bytes.Equal(ids[i], identity(t, b)) {
			t.Fatalf("%s: two constructions have different identities", m.name)
		}
		requireSameIrradiance(t, m.name, a, b, probeTimes(a, 24*3600))
		for j := 0; j < i; j++ {
			if bytes.Equal(ids[i], ids[j]) {
				t.Errorf("%s and %s share an identity", m.name, identityMakers[j].name)
			}
		}
	}

	// Different seeds, one realisation: both 2 s runs are cloud-free.
	a, b := StressClouds(cloudFreeSeeds[0], 2), StressClouds(cloudFreeSeeds[1], 2)
	if !bytes.Equal(identity(t, a), identity(t, b)) {
		t.Fatalf("cloud-free seeds %v have different identities", cloudFreeSeeds)
	}
	requireSameIrradiance(t, "cloud-free seeds", a, b, probeTimes(a, 2))

	// The order NewSteps is given does not matter: it sorts.
	s1, _ := NewSteps(Step{From: 20, G: 900}, Step{From: 0, G: 100}, Step{From: 10, G: 500})
	s2 := identityMakers[3].make()
	if !bytes.Equal(identity(t, s1), identity(t, s2)) {
		t.Fatal("permuted steps have different identities")
	}
	requireSameIrradiance(t, "permuted steps", s1, s2, probeTimes(s1, 30))
}

// bumpFloats returns one copy of struct value v per float64 field, that
// field moved up by one ULP.
func bumpFloats(v any) []any {
	var out []any
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if rv.Field(i).Kind() != reflect.Float64 {
			continue
		}
		c := reflect.New(rv.Type()).Elem()
		c.Set(rv)
		f := c.Field(i)
		f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
		out = append(out, c.Interface())
	}
	return out
}

func TestOneULPChangesIdentity(t *testing.T) {
	differs := func(label string, a, b Profile) {
		t.Helper()
		if bytes.Equal(identity(t, a), identity(t, b)) {
			t.Errorf("%s: a one-ULP change kept the identity", label)
		}
	}
	clouds := StressClouds(5, 240)
	if len(clouds.events) == 0 {
		t.Fatal("stress clouds hold no event")
	}
	for e := range clouds.events {
		for k := 0; k < 4; k++ {
			c := &Clouds{base: clouds.base, events: append([]cloudEvent(nil), clouds.events...)}
			ev := &c.events[e]
			f := []*float64{&ev.start, &ev.duration, &ev.edge, &ev.transmission}[k]
			*f = math.Nextafter(*f, math.Inf(1))
			differs("cloud event", clouds, c)
		}
	}
	differs("clouds base", clouds, &Clouds{base: Constant(math.Nextafter(1000, 2000)), events: clouds.events})

	off := Offset{Base: clouds, T0: 37.5}
	differs("Offset.T0", off, Offset{Base: clouds, T0: math.Nextafter(off.T0, 100)})
	sc := Scaled{Base: clouds, Factor: 0.8}
	differs("Scaled.Factor", sc, Scaled{Base: clouds, Factor: math.Nextafter(sc.Factor, 1)})
	differs("Constant", Constant(1000), Constant(math.Nextafter(1000, 2000)))
	for _, v := range []Profile{
		Sinusoid{Mean: 500, Amplitude: 200, Period: 10, Phase: 0.3},
		DeepShadow(4),
		Day{Sunrise: 1, Sunset: 2, Peak: 3, Shape: 4},
	} {
		for _, bumped := range bumpFloats(v) {
			differs(reflect.TypeOf(v).Name(), v, bumped.(Profile))
		}
	}
	steps := identityMakers[3].make().(*Steps)
	for i := range steps.steps {
		for _, bumped := range bumpFloats(steps.steps[i]) {
			s := &Steps{steps: append([]Step(nil), steps.steps...)}
			s.steps[i] = bumped.(Step)
			differs("step", steps, s)
		}
	}
}

// ramp is a profile type pv does not define.
type ramp struct{}

func (ramp) Irradiance(t float64) float64 { return t }

func TestUnknownProfileHasNoIdentity(t *testing.T) {
	for name, p := range map[string]Profile{
		"unknown type":             ramp{},
		"nil":                      nil,
		"nil clouds":               (*Clouds)(nil),
		"nil steps":                (*Steps)(nil),
		"pointer to a value":       &Sinusoid{Mean: 1},
		"offset of unknown":        Offset{Base: ramp{}},
		"offset of nil":            Offset{},
		"scaled offset of unknown": Scaled{Base: Offset{Base: ramp{}}, Factor: 1},
		"clouds over unknown":      NewClouds(ramp{}, FullSun(), 1),
	} {
		if _, ok := AppendIdentity(nil, p); ok {
			t.Errorf("%s: has an identity", name)
		}
	}
}

// fuzzClouds builds a cloud overlay from fuzzed values, refusing the
// ones outside a bounded range: a tiny mean gap over a long span would
// generate events without end.
func fuzzClouds(g, span, gap, dur, minT, maxT, edge float64, seed int64) (*Clouds, bool) {
	in := func(x, lo, hi float64) bool { return x >= lo && x <= hi }
	if !in(g, 0, 2000) || !in(span, 0, 600) || !(in(gap, 1, 1e6) || math.IsInf(gap, 1)) ||
		!in(dur, 0, 600) || !in(minT, 0, 1) || !in(maxT, 0, 1) || !in(edge, 0, 60) {
		return nil, false
	}
	return NewClouds(Constant(g), CloudParams{Span: span, MeanGap: gap, MeanDuration: dur,
		MinTransmission: minT, MaxTransmission: maxT, EdgeSeconds: edge}, seed), true
}

// FuzzProfileIdentity checks the identity contract on fuzzed cloud
// overlays: two overlays with equal identities agree, bit for bit, at
// the fuzzed time and at every event edge; and one construction always
// has one identity.
func FuzzProfileIdentity(f *testing.F) {
	f.Add(1000.0, 2.0, 30.0, 12.0, 0.25, 0.6, 2.0, cloudFreeSeeds[0],
		1000.0, 2.0, 30.0, 12.0, 0.25, 0.6, 2.0, cloudFreeSeeds[1], 1.5)
	f.Add(1000.0, 240.0, 30.0, 12.0, 0.25, 0.6, 2.0, int64(5),
		1000.0, 240.0, 30.0, 12.0, 0.25, 0.6, 2.0, int64(5), 33.3)
	f.Add(620.0, 0.0, 300.0, 60.0, 0.72, 0.92, 8.0, int64(1),
		620.0, 100.0, math.Inf(1), 60.0, 0.72, 0.92, 8.0, int64(2), 50.0)
	f.Add(1000.0, 240.0, 30.0, 12.0, 0.25, 0.6, 2.0, int64(5),
		1000.0, 240.0, 30.0, 12.0, 0.25, 0.6, 2.0, int64(6), 100.0)

	f.Fuzz(func(t *testing.T, g1, span1, gap1, dur1, minT1, maxT1, edge1 float64, seed1 int64,
		g2, span2, gap2, dur2, minT2, maxT2, edge2 float64, seed2 int64, at float64) {
		a, ok := fuzzClouds(g1, span1, gap1, dur1, minT1, maxT1, edge1, seed1)
		if !ok {
			return
		}
		b, ok := fuzzClouds(g2, span2, gap2, dur2, minT2, maxT2, edge2, seed2)
		if !ok {
			return
		}
		idA := identity(t, a)
		again, _ := fuzzClouds(g1, span1, gap1, dur1, minT1, maxT1, edge1, seed1)
		if !bytes.Equal(idA, identity(t, again)) {
			t.Fatal("one construction gave two identities")
		}
		if !bytes.Equal(idA, identity(t, b)) {
			return
		}
		requireSameIrradiance(t, "fuzzed clouds", a, b, append(edges(a), at))
	})
}

// requireAgreeUntil fails unless a and b agree, bit for bit, at every
// probe time of either profile up to tc: a dense grid over [-1, tc]
// (over [-1, horizon] when tc is beyond it) plus every edge at or
// before tc, its neighbouring floats, and tc itself.
func requireAgreeUntil(t *testing.T, label string, a, b Profile, tc, horizon float64) {
	t.Helper()
	end := math.Min(tc, horizon)
	ts := []float64{end}
	for i := 0; i <= 2000; i++ {
		ts = append(ts, -1+(end+1)*float64(i)/2000)
	}
	for _, e := range append(edges(a), edges(b)...) {
		ts = append(ts, math.Nextafter(e, math.Inf(-1)), e, math.Nextafter(e, math.Inf(1)))
	}
	for _, tt := range ts {
		if tt > tc {
			continue
		}
		if ga, gb := a.Irradiance(tt), b.Irradiance(tt); math.Float64bits(ga) != math.Float64bits(gb) {
			t.Fatalf("%s: SharedUntil %v, but irradiance %v vs %v at t=%v", label, tc, ga, gb, tt)
		}
	}
}

// TestSharedUntil pins the agreement time prefix forking rests on: two
// stress-cloud realisations agree exactly up to SharedUntil — at the
// start of the first differing cloud too, where the smoothstep
// attenuation is exactly 0 — and, their clouds being deep, differ a
// microsecond later. ClearUntil bounds it from below. Equal identities
// agree for ever; anything the function cannot prove gives 0.
func TestSharedUntil(t *testing.T) {
	const span = 240
	clouds := make([]*Clouds, 24)
	for i := range clouds {
		clouds[i] = StressClouds(int64(i+1), span)
	}
	for i, a := range clouds {
		for j, b := range clouds {
			if i == j {
				continue
			}
			label := fmt.Sprintf("seeds %d and %d", i+1, j+1)
			tc := SharedUntil(a, b)
			if tc != SharedUntil(b, a) {
				t.Fatalf("%s: SharedUntil is not symmetric", label)
			}
			if lo := math.Min(ClearUntil(a), ClearUntil(b)); !(tc >= lo) || !(tc > 0) {
				t.Fatalf("%s: SharedUntil %v, ClearUntil bound %v", label, tc, lo)
			}
			requireAgreeUntil(t, label, a, b, tc, span)
			if past := tc + 1e-6; tc < span && a.Irradiance(past) == b.Irradiance(past) {
				t.Fatalf("%s: deep clouds still agree at %v, past SharedUntil %v", label, past, tc)
			}
		}
		requireAgreeUntil(t, fmt.Sprintf("seed %d and its base", i+1), a, Constant(1000), ClearUntil(a), span)
	}

	free1, free2 := StressClouds(cloudFreeSeeds[0], 2), StressClouds(cloudFreeSeeds[1], 2)
	for name, pair := range map[string][2]Profile{
		"cloud-free seeds":   {free1, free2},
		"one construction":   {clouds[3], StressClouds(4, span)},
		"offset, same clock": {Offset{Base: clouds[0], T0: 5}, Offset{Base: StressClouds(1, span), T0: 5}},
		"a constant":         {Constant(620), Constant(620)},
	} {
		if got := SharedUntil(pair[0], pair[1]); !math.IsInf(got, 1) {
			t.Errorf("%s: equal identities, SharedUntil %v", name, got)
		}
	}
	if got := ClearUntil(free1); !math.IsInf(got, 1) {
		t.Errorf("cloud-free overlay: ClearUntil %v", got)
	}

	other := NewClouds(Constant(999), CloudParams{Span: span, MeanGap: 30, MeanDuration: 12,
		MinTransmission: 0.25, MaxTransmission: 0.6, EdgeSeconds: 2}, 1)
	for name, pair := range map[string][2]Profile{
		"offset":          {Offset{Base: clouds[0], T0: 5}, Offset{Base: clouds[1], T0: 5}},
		"scaled":          {Scaled{Base: clouds[0], Factor: 0.8}, Scaled{Base: clouds[1], Factor: 0.8}},
		"mismatched base": {clouds[0], other},
		"clouds and base": {clouds[0], Constant(1000)},
		"unknown type":    {ramp{}, ramp{}},
		"nil":             {nil, clouds[0]},
		"nil clouds":      {(*Clouds)(nil), clouds[0]},
		"sinusoids":       {Sinusoid{Mean: 1}, Sinusoid{Mean: 2}},
	} {
		if got := SharedUntil(pair[0], pair[1]); got != 0 {
			t.Errorf("%s: SharedUntil %v, want 0", name, got)
		}
	}
	for name, p := range map[string]Profile{
		"constant": Constant(1000), "offset clouds": Offset{Base: clouds[0]},
		"clouds over unknown": NewClouds(ramp{}, PartialSun(span), 1), "nil": nil,
	} {
		if got := ClearUntil(p); got != 0 {
			t.Errorf("%s: ClearUntil %v, want 0", name, got)
		}
	}
}

// TestSharedUntilZeroEdge covers clouds whose edges have zero length:
// such a cloud is at full depth from its very start, so agreement ends
// one float before it.
func TestSharedUntilZeroEdge(t *testing.T) {
	p := CloudParams{Span: 600, MeanGap: 30, MeanDuration: 12, MinTransmission: 0.1, MaxTransmission: 0.2}
	a, b := NewClouds(Constant(800), p, 1), NewClouds(Constant(800), p, 2)
	tc := SharedUntil(a, b)
	first := math.Min(a.events[0].start, b.events[0].start)
	if tc != math.Nextafter(first, math.Inf(-1)) {
		t.Fatalf("SharedUntil %v, want the float before the first cloud at %v", tc, first)
	}
	requireAgreeUntil(t, "zero edges", a, b, tc, 600)
	if a.Irradiance(first) == b.Irradiance(first) {
		t.Fatalf("zero-edge clouds agree at the first cloud's start %v", first)
	}
}

// FuzzSharedUntil checks the agreement contract on fuzzed cloud
// overlays: two overlays agree, bit for bit, on a dense grid and at
// every event edge up to SharedUntil (and at the fuzzed time when it is
// no later), and SharedUntil is at least the earlier ClearUntil when
// the bases agree.
func FuzzSharedUntil(f *testing.F) {
	f.Add(1000.0, 240.0, 30.0, 12.0, 0.25, 0.6, 2.0, int64(5),
		1000.0, 240.0, 30.0, 12.0, 0.25, 0.6, 2.0, int64(6), 33.3)
	f.Add(800.0, 600.0, 30.0, 12.0, 0.1, 0.2, 0.0, int64(1),
		800.0, 600.0, 30.0, 12.0, 0.1, 0.2, 0.0, int64(2), 20.0)
	f.Add(620.0, 100.0, 60.0, 30.0, 0.72, 0.92, 8.0, int64(1),
		620.0, 50.0, 60.0, 30.0, 0.72, 0.92, 8.0, int64(1), 60.0)
	f.Add(1000.0, 2.0, 30.0, 12.0, 0.25, 0.6, 2.0, cloudFreeSeeds[0],
		1000.0, 240.0, 30.0, 12.0, 0.25, 0.6, 2.0, int64(3), 1.0)

	f.Fuzz(func(t *testing.T, g1, span1, gap1, dur1, minT1, maxT1, edge1 float64, seed1 int64,
		g2, span2, gap2, dur2, minT2, maxT2, edge2 float64, seed2 int64, at float64) {
		a, ok := fuzzClouds(g1, span1, gap1, dur1, minT1, maxT1, edge1, seed1)
		if !ok {
			return
		}
		b, ok := fuzzClouds(g2, span2, gap2, dur2, minT2, maxT2, edge2, seed2)
		if !ok {
			return
		}
		tc := SharedUntil(a, b)
		if !(tc >= 0) {
			t.Fatalf("SharedUntil %v", tc)
		}
		if g1 == g2 {
			if lo := math.Min(ClearUntil(a), ClearUntil(b)); !(tc >= lo) {
				t.Fatalf("SharedUntil %v below the earlier ClearUntil %v", tc, lo)
			}
		}
		if tc == 0 {
			return
		}
		requireAgreeUntil(t, "fuzzed clouds", a, b, tc, 600)
		if at <= tc {
			if ga, gb := a.Irradiance(at), b.Irradiance(at); math.Float64bits(ga) != math.Float64bits(gb) {
				t.Fatalf("SharedUntil %v, but irradiance %v vs %v at t=%v", tc, ga, gb, at)
			}
		}
	})
}
