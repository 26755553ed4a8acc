package pv

import (
	"encoding/binary"
	"math"
)

// Type tags of the profile identity encoding, one per Profile type this
// package defines.
const (
	idConstant byte = iota + 1
	idSinusoid
	idSteps
	idShadow
	idDay
	idOffset
	idScaled
	idClouds
)

// AppendIdentity appends the exact identity of profile p to dst and
// reports whether p has one. The identity is a type tag, the IEEE-754
// bits of every field Irradiance reads (all four floats of every cloud
// event included), a length before each list, and the identity of each
// child profile. It is a prefix code, so two profiles with equal
// identities are the same tree of the same values and return the same
// irradiance at every t, bit for bit. Equal irradiance does not imply
// equal identity: Constant(0) and Constant(-0) differ, as do a Clouds
// without events and its base.
//
// A tree holding any profile type this package does not define, or a
// nil profile, has no identity: nothing bounds what its Irradiance
// reads.
func AppendIdentity(dst []byte, p Profile) ([]byte, bool) {
	switch p := p.(type) {
	case Constant:
		return appendBits(append(dst, idConstant), float64(p)), true
	case Sinusoid:
		return appendBits(append(dst, idSinusoid), p.Mean, p.Amplitude, p.Period, p.Phase), true
	case *Steps:
		if p == nil {
			return dst, false
		}
		dst = binary.LittleEndian.AppendUint64(append(dst, idSteps), uint64(len(p.steps)))
		for _, s := range p.steps {
			dst = appendBits(dst, s.From, s.G)
		}
		return dst, true
	case Shadow:
		return appendBits(append(dst, idShadow), p.Base, p.Depth, p.Start, p.Duration, p.Edge), true
	case Day:
		return appendBits(append(dst, idDay), p.Sunrise, p.Sunset, p.Peak, p.Shape), true
	case Offset:
		return AppendIdentity(appendBits(append(dst, idOffset), p.T0), p.Base)
	case Scaled:
		return AppendIdentity(appendBits(append(dst, idScaled), p.Factor), p.Base)
	case *Clouds:
		if p == nil {
			return dst, false
		}
		dst = binary.LittleEndian.AppendUint64(append(dst, idClouds), uint64(len(p.events)))
		for _, ev := range p.events {
			dst = appendBits(dst, ev.start, ev.duration, ev.edge, ev.transmission)
		}
		return AppendIdentity(dst, p.base)
	}
	return dst, false
}

// appendBits appends the IEEE-754 bits of each value, little-endian.
func appendBits(dst []byte, vs ...float64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// SharedUntil returns how long profiles a and b agree exactly: a time
// t such that a.Irradiance(s) and b.Irradiance(s) have equal bits for
// every s ≤ t. Equal identities give +Inf. Two cloud overlays over
// bases with equal identities agree until the earliest start of an
// event from their first differing one on (see ClearUntil). Anything
// else gives 0, which proves nothing: callers must not read it as
// agreement at s ≤ 0.
func SharedUntil(a, b Profile) float64 {
	ca, okA := a.(*Clouds)
	cb, okB := b.(*Clouds)
	if !okA || !okB || ca == nil || cb == nil {
		if sameIdentity(a, b) {
			return math.Inf(1)
		}
		return 0
	}
	if !sameIdentity(ca.base, cb.base) {
		return 0
	}
	i := 0
	for i < len(ca.events) && i < len(cb.events) && sameEvent(ca.events[i], cb.events[i]) {
		i++
	}
	if i == len(ca.events) && i == len(cb.events) {
		return math.Inf(1) // equal identities
	}
	return max(0, math.Min(clearFrom(ca.events[i:]), clearFrom(cb.events[i:])))
}

// sameIdentity reports whether a and b both have an identity and the
// two are equal.
func sameIdentity(a, b Profile) bool {
	var bufA, bufB [128]byte
	idA, okA := AppendIdentity(bufA[:0], a)
	idB, okB := AppendIdentity(bufB[:0], b)
	return okA && okB && string(idA) == string(idB)
}

// ClearUntil returns how long a cloud overlay agrees exactly with its
// own cloud-free base: the start of its earliest event, +Inf when it
// has none. At an event's start the smoothstep attenuation is exactly
// 0, so the start itself still agrees; an event whose factor there is
// not exactly 1 (a zero-length edge) ends the agreement one float
// earlier. Every other profile gives 0.
func ClearUntil(p Profile) float64 {
	c, ok := p.(*Clouds)
	if !ok || c == nil {
		return 0
	}
	var buf [128]byte
	if _, ok := AppendIdentity(buf[:0], c.base); !ok {
		return 0
	}
	return max(0, clearFrom(c.events))
}

// clearFrom returns the latest t at which none of evs has changed the
// irradiance yet. Irradiance skips an event before its start; at its
// start the smoothstep attenuation is exactly 0, so the event
// multiplies by exactly 1 — unless it is degenerate (a zero-length
// edge, a NaN field), and then the agreement ends one float earlier. A
// NaN start makes Irradiance apply the event at every time.
func clearFrom(evs []cloudEvent) float64 {
	t := math.Inf(1)
	for i := range evs {
		start := evs[i].start
		if math.IsNaN(start) {
			return math.Inf(-1)
		}
		// The event alone over a unit sky irradiates its own factor.
		alone := Clouds{base: Constant(1), events: evs[i : i+1]}
		if alone.Irradiance(start) != 1 {
			start = math.Nextafter(start, math.Inf(-1))
		}
		t = math.Min(t, start)
	}
	return t
}

// sameEvent reports whether two events have equal bits in every field.
func sameEvent(a, b cloudEvent) bool {
	return math.Float64bits(a.start) == math.Float64bits(b.start) &&
		math.Float64bits(a.duration) == math.Float64bits(b.duration) &&
		math.Float64bits(a.edge) == math.Float64bits(b.edge) &&
		math.Float64bits(a.transmission) == math.Float64bits(b.transmission)
}
