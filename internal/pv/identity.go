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
