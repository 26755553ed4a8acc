// Package workload provides the benchmark workloads of the paper's
// evaluation: a faithful Go port of the smallpt global-illumination path
// tracer [12] (the CPU-saturating, embarrassingly parallel application the
// authors ran on the ODROID-XU4).
//
// The path tracer is a real renderer: examples and benchmarks execute it
// on the host to produce images and FPS measurements, while the
// co-simulation uses the calibrated soc.PerfModel to model its throughput
// at each OPP.
package workload

import "math"

// Vec is a 3-component vector used for positions, directions and RGB
// radiance.
type Vec struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec) Add(w Vec) Vec { return Vec{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v − w.
func (v Vec) Sub(w Vec) Vec { return Vec{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v scaled by s.
func (v Vec) Scale(s float64) Vec { return Vec{v.X * s, v.Y * s, v.Z * s} }

// Mul returns the component-wise product (used for colour filtering).
func (v Vec) Mul(w Vec) Vec { return Vec{v.X * w.X, v.Y * w.Y, v.Z * w.Z} }

// Dot returns the dot product.
func (v Vec) Dot(w Vec) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product.
func (v Vec) Cross(w Vec) Vec {
	return Vec{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns the unit vector in v's direction (zero vector is returned
// unchanged).
func (v Vec) Norm() Vec {
	l := math.Sqrt(v.Dot(v))
	if l == 0 {
		return v
	}
	return v.Scale(1 / l)
}

// Length returns the Euclidean norm.
func (v Vec) Length() float64 { return math.Sqrt(v.Dot(v)) }

// MaxComponent returns the largest of X, Y, Z.
func (v Vec) MaxComponent() float64 {
	m := v.X
	if v.Y > m {
		m = v.Y
	}
	if v.Z > m {
		m = v.Z
	}
	return m
}

// clamp01 clamps x into [0,1].
func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// ToSRGB converts linear radiance to an 8-bit sRGB-ish value with the
// smallpt gamma of 2.2.
func ToSRGB(x float64) uint8 {
	return uint8(math.Pow(clamp01(x), 1/2.2)*255 + 0.5)
}
